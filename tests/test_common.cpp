// Unit + property tests for the common layer: uids, state machines,
// profiler and its chunked log, logging.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "src/common/chunked_log.hpp"
#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/ids.hpp"
#include "src/common/image.hpp"
#include "src/common/log.hpp"
#include "src/common/profiler.hpp"
#include "src/common/states.hpp"

namespace entk {
namespace {

TEST(Uids, FormatAndMonotonicity) {
  const std::string a = generate_uid("thing");
  const std::string b = generate_uid("thing");
  EXPECT_EQ(uid_prefix(a), "thing");
  EXPECT_EQ(uid_number(b), uid_number(a) + 1);
}

TEST(Uids, IndependentCountersPerPrefix) {
  const auto t = uid_number(generate_uid("uid_test_a"));
  generate_uid("uid_test_b");
  EXPECT_EQ(uid_number(generate_uid("uid_test_a")), t + 1);
}

TEST(Uids, ParseHelpers) {
  EXPECT_EQ(uid_prefix("pipe.line.0042"), "pipe.line");
  EXPECT_EQ(uid_number("task.0042"), 42);
  EXPECT_EQ(uid_number("noseparator"), -1);
  EXPECT_EQ(uid_number("task.12x"), -1);
  EXPECT_EQ(uid_prefix("noseparator"), "noseparator");
}

TEST(Uids, ThreadSafeUniqueness) {
  std::vector<std::thread> threads;
  std::mutex mutex;
  std::set<std::string> seen;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 250; ++i) {
        const std::string uid = generate_uid("concurrent");
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(seen.insert(uid).second) << "duplicate " << uid;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TaskStates, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(TaskState::Canceled); ++i) {
    const auto s = static_cast<TaskState>(i);
    EXPECT_EQ(task_state_from_string(to_string(s)), s);
  }
  EXPECT_THROW(task_state_from_string("BOGUS"), ValueError);
}

TEST(TaskStates, LinearLifecycleIsValid) {
  EXPECT_TRUE(is_valid_transition(TaskState::Described, TaskState::Scheduling));
  EXPECT_TRUE(is_valid_transition(TaskState::Scheduling, TaskState::Scheduled));
  EXPECT_TRUE(is_valid_transition(TaskState::Scheduled, TaskState::Submitting));
  EXPECT_TRUE(is_valid_transition(TaskState::Submitting, TaskState::Submitted));
  EXPECT_TRUE(is_valid_transition(TaskState::Submitted, TaskState::Executed));
  EXPECT_TRUE(is_valid_transition(TaskState::Executed, TaskState::Done));
}

TEST(TaskStates, SkipsAreInvalid) {
  EXPECT_FALSE(is_valid_transition(TaskState::Described, TaskState::Scheduled));
  EXPECT_FALSE(is_valid_transition(TaskState::Scheduling, TaskState::Submitted));
  EXPECT_FALSE(is_valid_transition(TaskState::Submitted, TaskState::Done));
}

TEST(TaskStates, FailureAndResubmission) {
  // A task can fail anywhere after Described...
  EXPECT_TRUE(is_valid_transition(TaskState::Executed, TaskState::Failed));
  EXPECT_TRUE(is_valid_transition(TaskState::Submitted, TaskState::Failed));
  EXPECT_FALSE(is_valid_transition(TaskState::Described, TaskState::Failed));
  // ...and a failed task can be re-described (resubmission), only that.
  EXPECT_TRUE(is_valid_transition(TaskState::Failed, TaskState::Described));
  EXPECT_FALSE(is_valid_transition(TaskState::Failed, TaskState::Scheduled));
  EXPECT_FALSE(is_valid_transition(TaskState::Failed, TaskState::Done));
}

TEST(TaskStates, CancellationFromLiveStatesOnly) {
  EXPECT_TRUE(is_valid_transition(TaskState::Described, TaskState::Canceled));
  EXPECT_TRUE(is_valid_transition(TaskState::Executed, TaskState::Canceled));
  EXPECT_FALSE(is_valid_transition(TaskState::Done, TaskState::Canceled));
  EXPECT_FALSE(is_valid_transition(TaskState::Canceled, TaskState::Canceled));
}

TEST(TaskStates, FinalStatesAreTerminalExceptFailed) {
  EXPECT_TRUE(is_final(TaskState::Done));
  EXPECT_TRUE(is_final(TaskState::Failed));
  EXPECT_TRUE(is_final(TaskState::Canceled));
  EXPECT_TRUE(next_states(TaskState::Done).empty());
  EXPECT_TRUE(next_states(TaskState::Canceled).empty());
  EXPECT_EQ(next_states(TaskState::Failed),
            std::vector<TaskState>{TaskState::Described});
}

// Property sweep: no self-transitions; everything out of a final state
// except Failed->Described is invalid.
class TaskStateProperty : public ::testing::TestWithParam<int> {};

TEST_P(TaskStateProperty, Invariants) {
  const auto from = static_cast<TaskState>(GetParam());
  EXPECT_FALSE(is_valid_transition(from, from));
  for (int j = 0; j <= static_cast<int>(TaskState::Canceled); ++j) {
    const auto to = static_cast<TaskState>(j);
    if (is_valid_transition(from, to)) {
      EXPECT_TRUE(!is_final(from) ||
                  (from == TaskState::Failed && to == TaskState::Described));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStates, TaskStateProperty,
    ::testing::Range(0, static_cast<int>(TaskState::Canceled) + 1));

TEST(StageStates, Lifecycle) {
  EXPECT_TRUE(is_valid_transition(StageState::Described, StageState::Scheduling));
  EXPECT_TRUE(is_valid_transition(StageState::Scheduling, StageState::Scheduled));
  EXPECT_TRUE(is_valid_transition(StageState::Scheduled, StageState::Done));
  EXPECT_FALSE(is_valid_transition(StageState::Scheduling, StageState::Done));
  EXPECT_TRUE(is_valid_transition(StageState::Scheduled, StageState::Failed));
  EXPECT_EQ(stage_state_from_string("SCHEDULED"), StageState::Scheduled);
}

TEST(PipelineStates, Lifecycle) {
  EXPECT_TRUE(
      is_valid_transition(PipelineState::Described, PipelineState::Scheduling));
  EXPECT_TRUE(is_valid_transition(PipelineState::Scheduling, PipelineState::Done));
  EXPECT_FALSE(is_valid_transition(PipelineState::Described, PipelineState::Done));
  EXPECT_TRUE(
      is_valid_transition(PipelineState::Scheduling, PipelineState::Failed));
  EXPECT_EQ(pipeline_state_from_string("SCHEDULING"), PipelineState::Scheduling);
}

TEST(ProfilerTest, RecordsInOrder) {
  Profiler p;
  p.record("comp", "start", "u1");
  p.record("comp", "stop", "u1", 42.0);
  ASSERT_EQ(p.size(), 2u);
  const auto events = p.events();
  EXPECT_EQ(events[0].event, "start");
  EXPECT_LE(events[0].wall_us, events[1].wall_us);
  EXPECT_DOUBLE_EQ(events[0].virtual_s, -1.0);
  EXPECT_DOUBLE_EQ(events[1].virtual_s, 42.0);
}

TEST(ProfilerTest, FirstLastAndSpan) {
  Profiler p;
  p.record("c", "a");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  p.record("c", "a");
  p.record("c", "b");
  EXPECT_LT(*p.first_us("a"), *p.last_us("a"));
  EXPECT_GT(p.span_s("a", "b"), 0.004);
  EXPECT_EQ(p.span_s("missing", "b"), 0.0);
  EXPECT_FALSE(p.first_us("missing").has_value());
  EXPECT_EQ(p.count("a"), 2u);
}

TEST(ProfilerTest, PairedSumMatchesPerUidSpans) {
  Profiler p;
  p.record("c", "begin", "x");
  p.record("c", "begin", "y");
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  p.record("c", "end", "x");
  p.record("c", "end", "y");
  p.record("c", "end", "z");  // unmatched: ignored
  EXPECT_GT(p.paired_sum_s("begin", "end"), 0.008);
}

TEST(ProfilerTest, CsvDump) {
  Profiler p;
  p.record("c", "e", "u", 1.25);
  const std::string path = ::testing::TempDir() + "/prof.csv";
  p.dump_csv(path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);  // header
  EXPECT_STREQ(buf, "wall_us,virtual_s,component,event,uid\n");
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_NE(std::string(buf).find(",c,e,u"), std::string::npos);
  std::fclose(f);
  p.clear();
  EXPECT_EQ(p.size(), 0u);
}

TEST(ProfilerTest, CsvRoundTripsRfc4180SpecialCharacters) {
  Profiler p;
  // Commas, quotes, and an embedded newline must all survive the CSV.
  p.record("comp,with,commas", "event \"quoted\"", "uid\nnewline", 2.5);
  p.record("plain", "e", "u");
  const std::string path = ::testing::TempDir() + "/prof_rfc4180_" +
                           std::to_string(::getpid()) + ".csv";
  p.dump_csv(path);
  const std::vector<ProfileEvent> back = read_profile_csv(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].component, "comp,with,commas");
  EXPECT_EQ(back[0].event, "event \"quoted\"");
  EXPECT_EQ(back[0].uid, "uid\nnewline");
  EXPECT_DOUBLE_EQ(back[0].virtual_s, 2.5);
  EXPECT_EQ(back[0].wall_us, p.events()[0].wall_us);
  EXPECT_EQ(back[1].component, "plain");
  EXPECT_DOUBLE_EQ(back[1].virtual_s, -1.0);
}

TEST(ProfilerTest, ReadProfileCsvRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/prof_bad_" +
                           std::to_string(::getpid()) + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("wall_us,virtual_s,component,event,uid\nnot_a_number,1,c,e,u\n",
             f);
  std::fclose(f);
  EXPECT_THROW(read_profile_csv(path), EnTKError);
  EXPECT_THROW(read_profile_csv("/no/such/file.csv"), EnTKError);
}

TEST(ProfilerTest, IndexSurvivesClearAndHeavyLoad) {
  Profiler p;
  // The first/last/count index must agree with a full scan of the log.
  for (int i = 0; i < 1000; ++i) {
    p.record("c", i % 2 == 0 ? "even" : "odd", "u" + std::to_string(i));
  }
  EXPECT_EQ(p.count("even"), 500u);
  EXPECT_EQ(p.count("odd"), 500u);
  const auto events = p.events();
  std::int64_t first_even = 0, last_even = 0;
  bool seen = false;
  for (const ProfileEvent& e : events) {
    if (e.event != "even") continue;
    if (!seen) first_even = e.wall_us;
    last_even = e.wall_us;
    seen = true;
  }
  EXPECT_EQ(*p.first_us("even"), first_even);
  EXPECT_EQ(*p.last_us("even"), last_even);
  p.clear();
  EXPECT_EQ(p.count("even"), 0u);
  EXPECT_FALSE(p.first_us("even").has_value());
}

TEST(ChunkedLogTest, AppendsAcrossChunksInOrderWithoutMovingRecords) {
  ChunkedLog<std::string, 4> log;
  log.push_back("r0");
  const std::string* first = &log.back();
  for (int i = 1; i < 11; ++i) log.push_back("r" + std::to_string(i));
  std::vector<const std::string*> seen;
  log.for_each([&seen](const std::string& r) { seen.push_back(&r); });
  ASSERT_EQ(seen.size(), 11u);
  // Three chunks later the first record is still where it was appended.
  EXPECT_EQ(seen.front(), first);
  EXPECT_EQ(log.size(), 11u);
  EXPECT_EQ(log.back(), "r10");
  const std::vector<std::string> copy = log.to_vector();
  ASSERT_EQ(copy.size(), 11u);
  for (int i = 0; i < 11; ++i) EXPECT_EQ(copy[i], "r" + std::to_string(i));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(log.to_vector().empty());
  log.push_back("again");
  EXPECT_EQ(log.back(), "again");
}

TEST(Logging, LevelParsingAndGate) {
  EXPECT_EQ(log_level_from_string("debug"), LogLevel::Debug);
  EXPECT_EQ(log_level_from_string("off"), LogLevel::Off);
  EXPECT_EQ(log_level_from_string("???"), LogLevel::Warn);
  const LogLevel old = log_level();
  set_log_level(LogLevel::Off);
  ENTK_ERROR("test") << "suppressed";
  set_log_level(old);
}

TEST(Errors, MessagesCarryContext) {
  try {
    throw ValueError("task.0001", "cpu_reqs", "positive");
  } catch (const EnTKError& e) {
    EXPECT_NE(std::string(e.what()).find("task.0001"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cpu_reqs"), std::string::npos);
  }
  try {
    throw MissingError("stage.0", "tasks");
  } catch (const EnTKError& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos);
  }
}

}  // namespace
}  // namespace entk

namespace entk {
namespace {

TEST(ImageWriters, PgmRoundTripHeaderAndSize) {
  const std::string path = ::testing::TempDir() + "/test.pgm";
  std::vector<double> values = {0.0, 0.5, 1.0, 0.25, 0.75, 0.1};
  write_pgm(path, values, 3, 2);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {0};
  int w = 0, h = 0, maxval = 0;
  ASSERT_EQ(std::fscanf(f, "%2s %d %d %d", magic, &w, &h, &maxval), 4);
  EXPECT_STREQ(magic, "P5");
  EXPECT_EQ(w, 3);
  EXPECT_EQ(h, 2);
  EXPECT_EQ(maxval, 255);
  std::fgetc(f);  // single whitespace after header
  unsigned char pixels[6];
  ASSERT_EQ(std::fread(pixels, 1, 6, f), 6u);
  std::fclose(f);
  EXPECT_EQ(pixels[0], 0);    // min -> 0
  EXPECT_EQ(pixels[2], 255);  // max -> 255
}

TEST(ImageWriters, DivergingPpmMapsSignsToColors) {
  const std::string path = ::testing::TempDir() + "/test.ppm";
  std::vector<double> values = {-1.0, 0.0, 1.0};
  write_diverging_ppm(path, values, 3, 1);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[3] = {0};
  int w, h, maxval;
  ASSERT_EQ(std::fscanf(f, "%2s %d %d %d", magic, &w, &h, &maxval), 4);
  EXPECT_STREQ(magic, "P6");
  std::fgetc(f);
  unsigned char px[9];
  ASSERT_EQ(std::fread(px, 1, 9, f), 9u);
  std::fclose(f);
  // -1 -> pure blue, 0 -> white, +1 -> pure red.
  EXPECT_EQ(px[0], 0);   EXPECT_EQ(px[1], 0);   EXPECT_EQ(px[2], 255);
  EXPECT_EQ(px[3], 255); EXPECT_EQ(px[4], 255); EXPECT_EQ(px[5], 255);
  EXPECT_EQ(px[6], 255); EXPECT_EQ(px[7], 0);   EXPECT_EQ(px[8], 0);
}

TEST(ImageWriters, DimensionMismatchThrows) {
  EXPECT_THROW(write_pgm("/tmp/x.pgm", {1.0, 2.0}, 3, 2), ValueError);
  EXPECT_THROW(write_diverging_ppm("/tmp/x.ppm", {}, 1, 1), ValueError);
  EXPECT_THROW(write_pgm("/nonexistent_dir_xyz/x.pgm", {1.0}, 1, 1),
               EnTKError);
}

}  // namespace
}  // namespace entk
