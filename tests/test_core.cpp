// Unit tests for the core toolkit pieces: PST descriptions and validation,
// the transactional state store, the sync protocol, and overhead
// computation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "src/core/overheads.hpp"
#include "src/core/state_store.hpp"
#include "src/core/sync.hpp"

namespace entk {
namespace {

std::string fresh_dir() {
  const std::string dir = ::testing::TempDir() + "/entk_core_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------------------ PST

TEST(TaskDescription, ValidationRules) {
  Task t("t");
  EXPECT_THROW(t.validate(), MissingError);  // nothing to execute
  t.executable = "/bin/sleep";
  EXPECT_NO_THROW(t.validate());
  t.cpu_reqs.processes = 0;
  EXPECT_THROW(t.validate(), ValueError);
  t.cpu_reqs.processes = 2;
  t.cpu_reqs.threads_per_process = 4;
  EXPECT_EQ(t.cpu_reqs.total(), 8);
  t.duration_s = -1;
  EXPECT_THROW(t.validate(), ValueError);
  t.duration_s = 0;
  t.gpu_reqs.processes = -1;
  EXPECT_THROW(t.validate(), ValueError);
  t.gpu_reqs.processes = 0;
  t.retry_limit = -2;
  EXPECT_THROW(t.validate(), ValueError);
}

TEST(TaskDescription, FunctionOrDurationSuffices) {
  Task f;
  f.function = [] { return 0; };
  EXPECT_NO_THROW(f.validate());
  Task d;
  d.duration_s = 5.0;
  EXPECT_NO_THROW(d.validate());
}

TEST(TaskDescription, UidsAreUniqueAndJsonComplete) {
  Task a("a"), b("b");
  EXPECT_NE(a.uid(), b.uid());
  a.executable = "x";
  a.arguments = {"1", "2"};
  a.metadata["m"] = 3;
  const json::Value v = a.to_json();
  EXPECT_EQ(v.at("name").as_string(), "a");
  EXPECT_EQ(v.at("state").as_string(), "DESCRIBED");
  EXPECT_EQ(v.at("arguments").size(), 2u);
  EXPECT_EQ(v.at("metadata").at("m").as_int(), 3);
}

TEST(StageDescription, ValidationAndParents) {
  Stage s("s");
  EXPECT_THROW(s.validate(), MissingError);  // no tasks
  EXPECT_THROW(s.add_task(nullptr), ValueError);
  auto t = std::make_shared<Task>("t");
  t->duration_s = 1;
  s.add_task(t);
  EXPECT_NO_THROW(s.validate());
  s.set_parent("pipeline.X");
  EXPECT_EQ(t->parent_stage(), s.uid());
  EXPECT_EQ(t->parent_pipeline(), "pipeline.X");
}

TEST(PipelineDescription, StageOrderAndAdvance) {
  Pipeline p("p");
  EXPECT_THROW(p.validate(), MissingError);
  auto s1 = std::make_shared<Stage>("s1");
  auto s2 = std::make_shared<Stage>("s2");
  auto t = std::make_shared<Task>();
  t->duration_s = 1;
  s1->add_task(t);
  auto t2 = std::make_shared<Task>();
  t2->duration_s = 1;
  s2->add_task(t2);
  p.add_stage(s1);
  p.add_stage(s2);
  EXPECT_EQ(p.stage_count(), 2u);
  EXPECT_EQ(p.task_count(), 2u);
  EXPECT_EQ(p.current_stage(), s1);
  EXPECT_EQ(p.advance(), s2);
  EXPECT_EQ(p.advance(), nullptr);
  EXPECT_EQ(p.current_stage(), nullptr);
  EXPECT_EQ(p.stage_at(0), s1);
  EXPECT_EQ(p.stage_at(5), nullptr);
}

TEST(PipelineDescription, NoExtensionAfterFinal) {
  Pipeline p("p");
  auto s = std::make_shared<Stage>();
  auto t = std::make_shared<Task>();
  t->duration_s = 1;
  s->add_task(t);
  p.add_stage(s);
  p.set_state(PipelineState::Done);
  EXPECT_THROW(p.add_stage(std::make_shared<Stage>()), StateError);
}

TEST(RuntimeState, ConcurrentSetAndReadAreRaceFree) {
  // The Synchronizer writes task/stage/pipeline states while component
  // threads read them without a lock. Run under ThreadSanitizer, this
  // fails if the state fields are plain (non-atomic) members.
  Task t;
  Stage s;
  Pipeline p("p");
  std::thread writer([&] {
    for (int i = 0; i < 20000; ++i) {
      const bool even = i % 2 == 0;
      t.set_state(even ? TaskState::Scheduled : TaskState::Submitted);
      s.set_state(even ? StageState::Scheduling : StageState::Scheduled);
      p.set_state(even ? PipelineState::Scheduling : PipelineState::Described);
    }
    t.set_state(TaskState::Done);
    s.set_state(StageState::Done);
    p.set_state(PipelineState::Done);
  });
  // Every read returns a value some set_state wrote, never a torn one.
  bool done = false;
  while (!done) {
    const TaskState ts = t.state();
    const StageState ss = s.state();
    const PipelineState ps = p.state();
    EXPECT_TRUE(ts == TaskState::Described || ts == TaskState::Scheduled ||
                ts == TaskState::Submitted || ts == TaskState::Done);
    EXPECT_TRUE(ss == StageState::Described || ss == StageState::Scheduling ||
                ss == StageState::Scheduled || ss == StageState::Done);
    EXPECT_TRUE(ps == PipelineState::Described ||
                ps == PipelineState::Scheduling || ps == PipelineState::Done);
    done = ts == TaskState::Done && ss == StageState::Done &&
           ps == PipelineState::Done;
  }
  writer.join();
}

// ----------------------------------------------------------- StateStore

TEST(StateStoreTest, CommitAndQuery) {
  StateStore store;
  store.commit("task.1", "task", "DESCRIBED", "SCHEDULING", "wfp");
  store.commit("task.1", "task", "SCHEDULING", "SCHEDULED", "wfp");
  EXPECT_EQ(store.state_of("task.1"), "SCHEDULED");
  EXPECT_EQ(store.state_of("unknown"), "");
  EXPECT_EQ(store.transaction_count(), 2u);
  const auto history = store.history();
  EXPECT_EQ(history[0].seq, 1u);
  EXPECT_EQ(history[1].seq, 2u);
  EXPECT_EQ(history[1].component, "wfp");
}

TEST(StateStoreTest, DurableRecovery) {
  const std::string path = fresh_dir() + "/states.jsonl";
  {
    StateStore store(path);
    store.commit("p.1", "pipeline", "DESCRIBED", "SCHEDULING", "wfp");
    store.commit("p.1", "pipeline", "SCHEDULING", "DONE", "wfp");
  }
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("p.1"), "DONE");
  // New commits continue the sequence.
  const auto seq = recovered.commit("p.2", "pipeline", "DESCRIBED",
                                    "SCHEDULING", "wfp");
  EXPECT_EQ(seq, 3u);
}

TEST(StateStoreTest, RecoveryStopsAtTornRecord) {
  const std::string path = fresh_dir() + "/torn.jsonl";
  {
    StateStore store(path);
    store.commit("a", "task", "DESCRIBED", "SCHEDULING", "c");
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "a");
    std::fputs("{\"seq\":2,\"uid\":\"a\",\"to\":\"SCHE", f);
    std::fclose(f);
  }
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 1u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULING");
}

TEST(StateStoreTest, GroupCommitCrashLosesOnlyUnflushedTail) {
  const std::string path = fresh_dir() + "/crash.jsonl";
  mq::JournalConfig journal;
  journal.max_batch_bytes = 1 << 20;
  journal.max_delay_s = 60.0;  // background flusher never fires in-test
  StateStore store(path, journal);
  store.commit("a", "task", "DESCRIBED", "SCHEDULING", "c");
  store.commit("a", "task", "SCHEDULING", "SCHEDULED", "c");
  store.flush();  // durability barrier: the first two records are on disk
  store.commit("a", "task", "SCHEDULED", "SUBMITTED", "c");
  // Hard crash: the unflushed tail is gone, exactly what SIGKILL leaves.
  store.journal_writer()->simulate_crash();
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULED");
}

TEST(StateStoreTest, SyncEveryAppendCommitsAreCrashDurable) {
  const std::string path = fresh_dir() + "/sync.jsonl";
  mq::JournalConfig journal;
  journal.sync_every_append = true;  // the --journal-max-delay-ms 0 policy
  StateStore store(path, journal);
  store.commit("a", "task", "DESCRIBED", "SCHEDULING", "c");
  store.commit("a", "task", "SCHEDULING", "SCHEDULED", "c");
  store.journal_writer()->simulate_crash();  // no barrier needed
  StateStore recovered;
  EXPECT_EQ(recovered.recover(path), 2u);
  EXPECT_EQ(recovered.state_of("a"), "SCHEDULED");
}

TEST(StateStoreTest, ExternalSinkInvoked) {
  StateStore store;
  std::vector<std::string> sunk;
  store.set_external_sink(
      [&](const StateTransaction& t) { sunk.push_back(t.uid); });
  store.commit("x", "task", "A", "B", "c");
  ASSERT_EQ(sunk.size(), 1u);
  EXPECT_EQ(sunk[0], "x");
}

// ------------------------------------------------------- Sync protocol

class SyncFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("sync_test");
    broker_->declare_queue("q.states");
    auto pipeline = std::make_shared<Pipeline>("p");
    stage_ = std::make_shared<Stage>("s");
    task_ = std::make_shared<Task>("t");
    task_->duration_s = 1;
    stage_->add_task(task_);
    pipeline->add_stage(stage_);
    pipeline_ = pipeline;
    registry_.add_pipeline(pipeline);
    sync_ = std::make_unique<Synchronizer>(broker_, "q.states", &registry_,
                                           &store_, profiler_);
    sync_->start();
  }

  void TearDown() override {
    sync_->stop();
    broker_->close();
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_ = std::make_shared<Profiler>();
  std::unique_ptr<Synchronizer> sync_;
  PipelinePtr pipeline_;
  StagePtr stage_;
  TaskPtr task_;
};

TEST_F(SyncFixture, ValidTransitionAppliedAndCommitted) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_TRUE(client.sync(task_->uid(), "task", "DESCRIBED", "SCHEDULING",
                          true));
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
  EXPECT_EQ(store_.state_of(task_->uid()), "SCHEDULING");
  EXPECT_EQ(sync_->processed(), 1u);
}

TEST_F(SyncFixture, InvalidTransitionRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_FALSE(client.sync(task_->uid(), "task", "DESCRIBED", "DONE", true));
  EXPECT_EQ(task_->state(), TaskState::Described);
  EXPECT_EQ(store_.transaction_count(), 0u);
  EXPECT_EQ(sync_->rejected(), 1u);
}

TEST_F(SyncFixture, StaleFromStateRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  ASSERT_TRUE(client.sync(task_->uid(), "task", "DESCRIBED", "SCHEDULING",
                          true));
  // A second component believing the task is still DESCRIBED loses.
  EXPECT_FALSE(client.sync(task_->uid(), "task", "DESCRIBED", "SCHEDULING",
                           true));
}

TEST_F(SyncFixture, UnknownObjectRejected) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_FALSE(client.sync("task.9999x", "task", "DESCRIBED", "SCHEDULING",
                           true));
  EXPECT_FALSE(client.sync(task_->uid(), "nonsense", "A", "B", true));
}

TEST_F(SyncFixture, StageAndPipelineTransitions) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  EXPECT_TRUE(client.sync(pipeline_->uid(), "pipeline", "DESCRIBED",
                          "SCHEDULING", true));
  EXPECT_EQ(pipeline_->state(), PipelineState::Scheduling);
  EXPECT_TRUE(client.sync(stage_->uid(), "stage", "DESCRIBED", "SCHEDULING",
                          true));
  EXPECT_TRUE(
      client.sync(stage_->uid(), "stage", "SCHEDULING", "SCHEDULED", true));
  EXPECT_EQ(stage_->state(), StageState::Scheduled);
}

TEST_F(SyncFixture, FireAndForgetEventuallyApplies) {
  SyncClient client(broker_, "test", "q.states", "q.ack.test");
  client.sync(task_->uid(), "task", "DESCRIBED", "SCHEDULING", false);
  for (int spin = 0; spin < 500 && task_->state() != TaskState::Scheduling;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task_->state(), TaskState::Scheduling);
}

TEST(ObjectRegistryTest, LookupAndRuntimeStageAddition) {
  ObjectRegistry registry;
  auto p = std::make_shared<Pipeline>("p");
  auto s = std::make_shared<Stage>("s");
  auto t = std::make_shared<Task>("t");
  t->duration_s = 1;
  s->add_task(t);
  p->add_stage(s);
  registry.add_pipeline(p);
  EXPECT_EQ(registry.pipeline(p->uid()), p);
  EXPECT_EQ(registry.stage(s->uid()), s);
  EXPECT_EQ(registry.task(t->uid()), t);
  EXPECT_EQ(registry.task("nope"), nullptr);
  EXPECT_EQ(registry.task_count(), 1u);

  auto s2 = std::make_shared<Stage>("late");
  auto t2 = std::make_shared<Task>("t2");
  t2->duration_s = 1;
  s2->add_task(t2);
  p->add_stage(s2);
  registry.add_stage(s2);
  EXPECT_EQ(registry.stage(s2->uid()), s2);
  EXPECT_EQ(registry.task(t2->uid()), t2);
}

// -------------------------------------------------------- Overheads

TEST(Overheads, ComputedFromProfilerEvents) {
  Profiler p;
  // RTS lifecycle at virtual times.
  p.record("rts", "rts_init_start", "", 0.0);
  p.record("rts", "rts_init_stop", "", 30.0);
  p.record("umgr", "unit_submit", "u1", 31.0);
  p.record("agent", "unit_received", "u1", 31.0);
  p.record("agent", "unit_stage_in_start", "u1", 31.0);
  p.record("agent", "unit_stage_in_stop", "u1", 33.0);
  p.record("agent", "unit_exec_start", "u1", 35.0);
  p.record("agent", "unit_exec_stop", "u1", 135.0);
  p.record("agent", "unit_done", "u1", 136.0);
  p.record("rts", "rts_teardown_start", "", 140.0);
  p.record("rts", "rts_teardown_stop", "", 155.0);

  OverheadInputs in;
  in.setup_wall_s = 0.002;
  in.mgmt_wall_s = 0.010;
  in.teardown_wall_s = 0.001;
  in.tasks_processed = 1;
  in.host.factor = 1.0;

  const OverheadReport r = compute_overheads(obs::build_trace(p), in);
  EXPECT_DOUBLE_EQ(r.task_exec_s, 100.0);
  EXPECT_DOUBLE_EQ(r.staging_s, 2.0);
  EXPECT_DOUBLE_EQ(r.rts_teardown_s, 15.0);
  // rts_init 30 + lead-in (35-31-2=2) + lead-out (136-135=1).
  EXPECT_NEAR(r.rts_overhead_s, 33.0, 1e-9);
  // Host model: setup 0.1, mgmt ~9.5005, teardown 5.
  EXPECT_NEAR(r.entk_setup_s, 0.102, 1e-9);
  EXPECT_NEAR(r.entk_mgmt_s, 9.5005 + 0.010, 1e-9);
  EXPECT_NEAR(r.entk_teardown_s, 5.001, 1e-9);
  EXPECT_FALSE(r.to_table().empty());
}

TEST(Overheads, TitanHostFactorShrinksEnTKOverheads) {
  Profiler p;
  OverheadInputs vm;
  vm.tasks_processed = 16;
  vm.host.factor = 1.0;
  OverheadInputs titan = vm;
  titan.host.factor = 0.3;
  const OverheadReport rv = compute_overheads(obs::build_trace(p), vm);
  const OverheadReport rt = compute_overheads(obs::build_trace(p), titan);
  EXPECT_LT(rt.entk_setup_s, rv.entk_setup_s);
  EXPECT_LT(rt.entk_mgmt_s, rv.entk_mgmt_s);
  EXPECT_LT(rt.entk_teardown_s, rv.entk_teardown_s);
  EXPECT_NEAR(rt.entk_mgmt_s / rv.entk_mgmt_s, 0.3, 0.01);
}

TEST(Overheads, EmptyProfilerYieldsZeroWorkloadTimes) {
  Profiler p;
  OverheadInputs in;
  const OverheadReport r = compute_overheads(obs::build_trace(p), in);
  EXPECT_DOUBLE_EQ(r.task_exec_s, 0.0);
  EXPECT_DOUBLE_EQ(r.staging_s, 0.0);
  EXPECT_DOUBLE_EQ(r.rts_overhead_s, 0.0);
}

}  // namespace
}  // namespace entk
