// entk_bench: end-to-end benchmark of one task's trip through the toolkit.
//
// Each invocation runs ONE workload through the public AppManager API: a
// warm-up rep, then timed reps for --seconds (at least three), and reports
// the median over the timed reps. Workloads are pipelines x stages x tasks
// per stage (README.md says why each exists):
//   bulk     16 x 1    x 8192  no-op RTS, in-memory        dispatch CPU
//   chain    16 x 1024 x 1     no-op RTS, in-memory        stage-step latency
//   durable  16 x 1    x 4096  no-op RTS, journal_dir set  journaled path
//   remote   16 x 1    x 1024  spawned entk_broker + entk_worker over TCP
// The seed draws per-task metadata sizes and the order pipelines are added;
// task counts never depend on it.
//
// Every layer is measured from outside the program: the bench times its own
// calls into public functions, reads counters the program already exports
// (profiler, metrics registry, state store) and owns the no-op RTS. Without
// --traced the end-to-end metrics are reported; with it, traced reps (live
// metrics on, Chrome trace exported) alternate with untraced ones and the
// per-layer metrics are reported.
//
// Every rep is checked: all tasks DONE, exactly one DONE commit per task in
// the state store, every pipeline DONE and, on `remote`, both daemons drain
// and exit 0 on SIGTERM. A violation exits 2.
//
// Output: one "name value unit" line per metric, a JSON report under
// --out-dir and, as the last line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// usage: entk_bench --workload bulk|chain|durable|remote --seed S
//                   [--seconds T] [--traced] [--out-dir DIR]
//        entk_bench --smoke [--out-dir DIR]
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/app_manager.hpp"
#include "src/mq/broker.hpp"
#include "src/net/frame.hpp"
#include "src/obs/trace.hpp"

namespace {

using namespace entk;
namespace fs = std::filesystem;

// ------------------------------------------------------------- workloads --

struct WorkloadSpec {
  const char* name;
  int pipelines;
  int stages;
  int tasks;                // per stage
  std::size_t meta_min;     // seeded metadata bytes per task; 0 = none
  std::size_t meta_max;
  bool durable;             // journal_dir set: broker + state journals
  bool remote;              // entk_broker + entk_worker daemons
};

constexpr WorkloadSpec kWorkloads[] = {
    {"bulk", 16, 1, 8192, 0, 0, false, false},
    {"chain", 16, 1024, 1, 0, 0, false, false},
    {"durable", 16, 1, 4096, 256, 4096, true, false},
    {"remote", 16, 1, 1024, 256, 1024, false, true},
};

/// --smoke divides the widest dimension by this.
constexpr int kSmokeDivisor = 64;

/// Reps never start past this much measuring time, whatever --seconds says,
/// so an invocation ends well inside three minutes.
constexpr double kMaxMeasureS = 120.0;

/// Tasks sampled by the bench-timed json and codec replays.
constexpr std::size_t kReplaySample = 2048;

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// ------------------------------------------------------------ statistics --

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) gives them (its
/// default 'exclusive' method), so the report matches the acceptance check.
std::vector<double> quartiles(std::vector<double> v) {
  if (v.size() < 2) return {median(v), median(v), median(v)};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::vector<double> out;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out.push_back((v[j - 1] * (4 - delta) + v[j] * delta) / 4.0);
  }
  return out;
}

/// Exact nearest-rank percentile of `v` (sorted in place).
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ------------------------------------------------------------ processes --

double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// VmHWM of this process, from getrusage (ru_maxrss is in KiB).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// user + sys CPU seconds of a child process, all threads, from
/// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

/// A spawned daemon whose stdout is scanned for its ready line. The child
/// dies with this process (PR_SET_PDEATHSIG), and the destructor SIGKILLs
/// and reaps it if terminate() was never reached.
class Daemon {
 public:
  Daemon(const char* binary, std::vector<std::string> args,
         const char* ready_marker) {
    // Built before fork(): the child may only make async-signal-safe calls.
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    int out[2];
    if (::pipe(out) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execv(binary, argv.data());
      ::_exit(127);
    }
    ::close(out[1]);
    if (pid_ < 0) {
      ::close(out[0]);
      return;
    }
    stdout_ = ::fdopen(out[0], "r");
    char line[256] = {0};
    while (stdout_ != nullptr && std::fgets(line, sizeof line, stdout_)) {
      if (std::strstr(line, ready_marker) != nullptr) {
        ready_line_ = line;
        break;
      }
    }
  }

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (stdout_ != nullptr) std::fclose(stdout_);
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ready() const { return pid_ > 0 && !ready_line_.empty(); }
  const std::string& ready_line() const { return ready_line_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM (graceful drain), reap, and return the exit code (-1 when the
  /// child died of a signal).
  int terminate() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::FILE* stdout_ = nullptr;
  std::string ready_line_;
};

/// entk_broker on an ephemeral loopback port plus one entk_worker.
struct Deployment {
  std::unique_ptr<Daemon> broker;
  std::unique_ptr<Daemon> worker;
  std::string endpoint;
};

Deployment deploy() {
  Deployment d;
  d.broker = std::make_unique<Daemon>(
      ENTK_BROKER_BINARY,
      std::vector<std::string>{"--port", "0", "--stats-interval", "0"},
      "listening on");
  if (!d.broker->ready()) throw std::runtime_error("entk_broker did not start");
  const std::string& line = d.broker->ready_line();
  d.endpoint = "127.0.0.1:" + std::to_string(std::atoi(
                                  line.c_str() + line.rfind(':') + 1));
  d.worker = std::make_unique<Daemon>(
      ENTK_WORKER_BINARY,
      std::vector<std::string>{"--broker", d.endpoint, "--worker-id", "bench",
                               "--cores", "4", "--clock-scale", "1e-6"},
      "serving");
  if (!d.worker->ready()) throw std::runtime_error("entk_worker did not start");
  return d;
}

/// A directory that exists for one scope and is removed on every path.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

// ---------------------------------------------------------- no-op RTS --

/// Counters of the bench-owned RTS; they outlive every RTS instance the
/// ExecManager's factory creates.
struct RtsCounters {
  std::atomic<std::uint64_t> submits{0};
  std::atomic<std::uint64_t> units{0};
  std::atomic<std::uint64_t> callback_ns{0};
  bool timed = false;  ///< time each completion callback (traced reps)
};

/// Completes every unit inside submit(), echoing its metadata, so EnTK's
/// own dispatch path is the only thing on the clock.
class NoopRts final : public rts::Rts {
 public:
  explicit NoopRts(RtsCounters* counters) : counters_(counters) {}

  void initialize() override {}

  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }

  void submit(std::vector<rts::TaskUnit> units) override {
    counters_->submits.fetch_add(1, std::memory_order_relaxed);
    counters_->units.fetch_add(units.size(), std::memory_order_relaxed);
    for (rts::TaskUnit& unit : units) {
      rts::UnitResult result;
      result.uid = std::move(unit.uid);
      result.name = std::move(unit.name);
      result.outcome = rts::UnitOutcome::Done;
      result.exit_code = 0;
      result.metadata = std::move(unit.metadata);
      if (!counters_->timed) {
        callback_(result);
        continue;
      }
      const auto t0 = std::chrono::steady_clock::now();
      callback_(result);
      counters_->callback_ns.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);
    }
  }

  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  rts::RtsStats stats() const override {
    rts::RtsStats s;
    s.units_submitted = counters_->units.load(std::memory_order_relaxed);
    s.units_completed = s.units_submitted;
    return s;
  }
  std::vector<std::string> in_flight_units() const override { return {}; }

 private:
  RtsCounters* counters_;
  std::function<void(const rts::UnitResult&)> callback_;
};

// --------------------------------------------------------------- inputs --

/// Everything the seed decides, generated once per invocation.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  int stages = 0;
  int tasks = 0;  // per stage
  std::vector<std::size_t> pipeline_order;
  std::vector<std::size_t> meta_bytes;  // per task; empty = no metadata
  std::vector<std::size_t> meta_offset;
  std::string pool;  // seeded characters the metadata is cut from

  std::size_t total_tasks() const {
    return static_cast<std::size_t>(spec->pipelines) *
           static_cast<std::size_t>(stages) * static_cast<std::size_t>(tasks);
  }
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, bool smoke) {
  Inputs in;
  in.spec = &spec;
  in.stages = spec.stages;
  in.tasks = spec.tasks;
  if (smoke) {
    int& widest = in.tasks > 1 ? in.tasks : in.stages;
    widest /= kSmokeDivisor;
  }
  std::mt19937_64 rng(seed);
  in.pipeline_order.resize(static_cast<std::size_t>(spec.pipelines));
  for (std::size_t p = 0; p < in.pipeline_order.size(); ++p) {
    in.pipeline_order[p] = p;
  }
  std::shuffle(in.pipeline_order.begin(), in.pipeline_order.end(), rng);
  if (spec.meta_max == 0) return in;

  std::uniform_int_distribution<int> letter('a', 'z');
  in.pool.resize(2 * spec.meta_max);
  for (char& c : in.pool) c = static_cast<char>(letter(rng));
  // Log-uniform sizes: as many small payloads per octave as large ones.
  std::uniform_real_distribution<double> log_size(
      std::log(static_cast<double>(spec.meta_min)),
      std::log(static_cast<double>(spec.meta_max)));
  std::uniform_int_distribution<std::size_t> offset(0, spec.meta_max);
  const std::size_t n = in.total_tasks();
  in.meta_bytes.resize(n);
  in.meta_offset.resize(n);
  for (std::size_t t = 0; t < n; ++t) {
    in.meta_bytes[t] = static_cast<std::size_t>(std::exp(log_size(rng)));
    in.meta_offset[t] = offset(rng);
  }
  return in;
}

/// A fresh application description (Task objects carry run state, so every
/// rep builds its own).
std::vector<PipelinePtr> build_app(const Inputs& in) {
  const WorkloadSpec& w = *in.spec;
  std::vector<PipelinePtr> app(static_cast<std::size_t>(w.pipelines));
  std::size_t t = 0;
  for (int p = 0; p < w.pipelines; ++p) {
    auto pipeline = std::make_shared<Pipeline>("p" + std::to_string(p));
    for (int s = 0; s < in.stages; ++s) {
      auto stage = std::make_shared<Stage>("s" + std::to_string(s));
      for (int k = 0; k < in.tasks; ++k, ++t) {
        auto task = std::make_shared<Task>(std::to_string(k));
        task->executable = "sleep";
        if (!in.meta_bytes.empty()) {
          json::Value meta;
          meta["payload"] = in.pool.substr(in.meta_offset[t], in.meta_bytes[t]);
          task->metadata = std::move(meta);
        }
        stage->add_task(std::move(task));
      }
      pipeline->add_stage(std::move(stage));
    }
    app[in.pipeline_order[static_cast<std::size_t>(p)]] = std::move(pipeline);
  }
  return app;
}

std::vector<TaskPtr> all_tasks(const std::vector<PipelinePtr>& app) {
  std::vector<TaskPtr> out;
  for (const PipelinePtr& p : app) {
    for (const StagePtr& stage : p->stages()) {
      for (const TaskPtr& task : stage->tasks()) out.push_back(task);
    }
  }
  return out;
}

// ------------------------------------------------------ layer replays --

/// Wall time of a callable, in microseconds.
template <typename F>
double time_us(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return 1e6 * seconds_since(t0);
}

/// Stitch time of the run's profiler (what AppManager pays in teardown).
double time_stitch_s(const Profiler& profiler,
                     const std::vector<PipelinePtr>& app) {
  obs::TraceLinks links;
  for (const PipelinePtr& p : app) {
    for (const StagePtr& stage : p->stages()) {
      links.stage_pipeline[stage->uid()] = p->uid();
      for (const TaskPtr& task : stage->tasks()) {
        links.task_stage[task->uid()] = stage->uid();
      }
    }
  }
  std::size_t sink = 0;
  const double us = time_us([&] {
    sink = obs::build_trace(profiler, links).tasks.size();
  });
  if (sink == 0) throw std::runtime_error("stitched trace has no tasks");
  return 1e-6 * us;
}

/// Commit every transaction of the run into a fresh store (journaled and
/// flushed when `journal` is non-empty).
double replay_state_us(const std::vector<StateTransaction>& history,
                       const std::string& journal) {
  StateStore store(journal);
  return time_us([&] {
    for (const StateTransaction& tx : history) {
      store.commit(tx.uid, tx.kind, tx.from_state, tx.to_state, tx.component);
    }
    store.flush();
  });
}

/// publish_batch / get_batch / ack_batch cycles of `messages` messages in
/// batches of `fill` on a fresh broker. In-memory queues carry a shared
/// structured payload, as the zero-copy path does; durable queues journal a
/// `body_bytes` body per message.
double replay_broker_us(std::size_t messages, std::size_t fill,
                        const std::string& journal_dir,
                        std::size_t body_bytes) {
  const bool durable = !journal_dir.empty();
  mq::Broker broker("replay", journal_dir);
  broker.declare_queue("q.replay", mq::QueueOptions{.durable = durable});
  json::Value shape;
  shape["uids"] = json::Array(fill, json::Value("task.000000"));
  const auto payload = std::make_shared<const json::Value>(std::move(shape));
  const auto body =
      std::make_shared<const std::string>(std::string(body_bytes, 'x'));
  std::size_t moved = 0;
  const double us = time_us([&] {
    std::vector<std::uint64_t> tags;
    while (moved < messages) {
      const std::size_t k = std::min(fill, messages - moved);
      std::vector<mq::Message> batch(k);
      for (mq::Message& m : batch) {
        if (durable) {
          m.set_body(body);
        } else {
          m.set_payload(payload);
        }
      }
      broker.publish_batch("q.replay", std::move(batch));
      tags.clear();
      for (const mq::Delivery& d : broker.get_batch("q.replay", k, 0.0)) {
        tags.push_back(d.delivery_tag);
      }
      moved += broker.ack_batch("q.replay", tags);
    }
    broker.close();  // durable: the final journal drain
  });
  if (moved != messages) throw std::runtime_error("broker replay lost messages");
  return us;
}

/// Mean body bytes of the messages published in the run's broker journal:
/// the body size the durable broker replay publishes per message.
std::size_t mean_published_body_bytes(const std::string& journal_path) {
  std::ifstream in(journal_path);
  std::string line;
  std::size_t records = 0;
  std::size_t bytes = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const json::Value rec = json::parse(line);
    if (rec.get_string("op", "") != "pub") continue;
    ++records;
    bytes += rec.at("body").as_string().size();
  }
  return records == 0 ? 0 : bytes / records;
}

/// TaskUnit::to_json -> dump -> parse of the workload's unit shape, per unit.
double json_roundtrip_us(const std::vector<TaskPtr>& tasks) {
  std::vector<rts::TaskUnit> units;
  for (std::size_t i = 0; i < tasks.size() && i < kReplaySample; ++i) {
    units.push_back(to_unit(*tasks[i]));
  }
  std::size_t sink = 0;
  const double us = time_us([&] {
    for (const rts::TaskUnit& unit : units) {
      sink += json::parse(unit.to_json().dump()).size();
    }
  });
  if (sink == 0) throw std::runtime_error("json round trip produced nothing");
  return us / static_cast<double>(units.size());
}

/// Binary wire codec cost per task: encode + decode (payload included) of
/// the pending message a remote worker receives and the completion record
/// it sends back.
double codec_us_per_task(const std::vector<TaskPtr>& tasks) {
  std::vector<mq::Message> msgs;
  std::size_t sample = 0;
  for (; sample < tasks.size() && sample < kReplaySample; ++sample) {
    const Task& task = *tasks[sample];
    json::Value pending;
    pending["units"] = json::Array{to_unit(task).to_json()};
    msgs.push_back(mq::Message::json_body("q.pending", std::move(pending)));
    json::Value record;
    record["uid"] = task.uid();
    record["outcome"] = rts::to_string(rts::UnitOutcome::Done);
    record["exit_code"] = 0;
    record["exec_start_t"] = 0.0;
    record["exec_end_t"] = 0.0;
    record["staging_in_s"] = 0.0;
    record["staging_out_s"] = 0.0;
    record["worker"] = "bench";
    if (!task.metadata.is_null()) record["metadata"] = task.metadata;
    json::Value done;
    done["results"] = json::Array{std::move(record)};
    msgs.push_back(mq::Message::json_body("q.completed", std::move(done)));
  }
  std::size_t sink = 0;
  std::string buf;
  const double us = time_us([&] {
    for (const mq::Message& msg : msgs) {
      buf.clear();
      net::append_message_binary(buf, msg);
      std::size_t offset = 0;
      sink += net::decode_message_binary(buf, offset).payload()->size();
    }
  });
  if (sink == 0) throw std::runtime_error("codec round trip produced nothing");
  return us / static_cast<double>(sample);
}

// ------------------------------------------------------------------ reps --

struct Rep {
  std::size_t tasks = 0;
  std::size_t failed = 0;  // tasks not DONE exactly once (+1 per violation)
  std::vector<std::string> violations;
  double peak_rss_mb = 0.0;
  MetricMap metrics;  // end-to-end always; per-layer when traced
};

void put(MetricMap& m, const std::string& name, double value,
         const std::string& unit) {
  m[name] = Metric{value, unit};
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Correctness of one rep: every task DONE, exactly one DONE commit per
/// task in the state store, every pipeline DONE.
void check_rep(AppManager& appman, const std::vector<PipelinePtr>& app,
               Rep& rep) {
  const std::vector<TaskPtr> tasks = all_tasks(app);
  if (appman.tasks_done() != tasks.size()) {
    rep.violations.push_back("tasks_done " +
                             std::to_string(appman.tasks_done()) + " of " +
                             std::to_string(tasks.size()));
  }
  std::unordered_map<std::string, int> done;
  done.reserve(tasks.size());
  for (const StateTransaction& tx : appman.state_store()->history()) {
    if (tx.kind == "task" && tx.to_state == "DONE") ++done[tx.uid];
  }
  std::size_t bad = 0;
  for (const TaskPtr& task : tasks) {
    const auto it = done.find(task->uid());
    if (it == done.end() || it->second != 1) ++bad;
  }
  if (bad > 0) {
    rep.violations.push_back(std::to_string(bad) +
                             " task(s) not DONE exactly once");
  }
  if (done.size() != tasks.size()) {
    rep.violations.push_back("DONE commits for unknown uids");
  }
  for (const PipelinePtr& p : app) {
    if (p->state() != PipelineState::Done) {
      rep.violations.push_back("pipeline " + p->uid() + " not DONE");
    }
  }
  rep.failed = std::max(bad, rep.violations.size());
}

using Snapshots = std::map<std::string, obs::MetricSnapshot>;

/// A counter's total, or a histogram's sum.
double total(const Snapshots& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : it->second.value;
}

double hist_count(const Snapshots& s, const std::string& name) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : static_cast<double>(it->second.count);
}

double hist_mean(const Snapshots& s, const std::string& name) {
  const auto it = s.find(name);
  if (it == s.end() || it->second.count == 0) return 0.0;
  return it->second.value / static_cast<double>(it->second.count);
}

/// Per-task span percentiles and, for multi-stage pipelines, the gap from
/// one stage's end to the next stage's start.
void core_trace_metrics(const obs::Trace& trace,
                        const std::vector<PipelinePtr>& app, MetricMap& m) {
  std::map<std::string, std::vector<double>> spans;
  for (const auto& [uid, t] : trace.tasks) {
    (void)uid;
    for (const obs::TaskSpan& s : t.spans) {
      spans[s.name].push_back(static_cast<double>(s.end_us - s.start_us));
    }
  }
  for (const char* name : {"enqueue", "schedule", "done"}) {
    auto it = spans.find(name);
    if (it == spans.end()) continue;
    const std::string base = std::string("core.span_") + name + "_us_";
    std::vector<double>& v = it->second;
    put(m, base + "mean",
        std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size()),
        "us");
    put(m, base + "p50", percentile(it->second, 0.50), "us");
    put(m, base + "p95", percentile(it->second, 0.95), "us");
  }
  std::vector<double> gaps;
  for (const PipelinePtr& p : app) {
    const std::vector<StagePtr> stages = p->stages();
    for (std::size_t i = 0; i + 1 < stages.size(); ++i) {
      const auto a = trace.stages.find(stages[i]->uid());
      const auto b = trace.stages.find(stages[i + 1]->uid());
      if (a == trace.stages.end() || b == trace.stages.end()) continue;
      gaps.push_back(static_cast<double>(b->second.start_us - a->second.end_us));
    }
  }
  if (!gaps.empty()) {
    put(m, "core.stage_gap_us_p50", percentile(gaps, 0.50), "us");
    put(m, "core.stage_gap_us_p95", percentile(gaps, 0.95), "us");
  }
}

struct RepContext {
  const Inputs& in;
  fs::path out_dir;
  bool traced = false;
  fs::path trace_out;  // non-empty: export this rep's Chrome trace
};

/// What one rep cost outside the program's own counters.
struct RepCost {
  double manager_cpu_s = 0.0;
  double broker_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  double renders = 0.0;  // mq::body_render_count() delta
};

/// The per-layer metrics of a traced rep, read after run() returned.
void layer_metrics(AppManager& appman, const std::vector<PipelinePtr>& app,
                   const WorkloadSpec& w, const ScratchDir* journal,
                   const RtsCounters& rts_counters, const RepCost& cost,
                   MetricMap& m) {
  const std::vector<TaskPtr> tasks = all_tasks(app);
  const double n = static_cast<double>(tasks.size());
  const Profiler& profiler = *appman.profiler();
  core_trace_metrics(appman.trace(), app, m);
  put(m, "core.mgmt_busy_us_per_task",
      1e6 * appman.overheads().entk_mgmt_measured_s / n, "us");
  put(m, "core.stitch_s", time_stitch_s(profiler, app), "s");
  put(m, "core.profiler_events_per_task",
      static_cast<double>(profiler.size()) / n, "count");

  StateStore& store = *appman.state_store();
  put(m, "state.commits_per_task",
      static_cast<double>(store.transaction_count()) / n, "count");
  const std::string state_replay_journal =
      journal ? (journal->path() / "replay.states").string() : "";
  const double state_us =
      replay_state_us(store.history(), state_replay_journal) / n;
  put(m, "state.replay_us_per_task", state_us, "us");

  Snapshots snap;
  for (obs::MetricSnapshot& s : appman.metrics()->snapshot()) {
    snap.emplace(s.name, std::move(s));
  }
  put(m, "mq.renders_per_task", cost.renders / n, "count");
  put(m, "worker.duplicate_frac", total(snap, "wfp.duplicate_results") / n,
      "fraction");
  const double json_us = json_roundtrip_us(tasks);
  const double codec_us = codec_us_per_task(tasks);
  put(m, "json.unit_roundtrip_us", json_us, "us");
  put(m, "net.codec_us_per_task", codec_us, "us");

  double mq_us = 0.0;
  double callback_us = 0.0;
  if (w.remote) {
    for (const char* dir : {"out", "in"}) {
      put(m, std::string("net.client_bytes_") + dir + "_per_task",
          total(snap, std::string("net.client.bytes_") + dir) / n, "B");
      put(m, std::string("net.client_frames_") + dir + "_per_task",
          total(snap, std::string("net.client.frames_") + dir) / n, "count");
    }
    for (const char* op : {"publish_batch", "get_batch", "ack_batch"}) {
      put(m, std::string("net.client_") + op + "_us_mean",
          hist_mean(snap, std::string("net.client.") + op + "_us"), "us");
    }
    put(m, "proc.manager_cpu_us_per_task", 1e6 * cost.manager_cpu_s / n, "us");
    put(m, "proc.broker_cpu_us_per_task", 1e6 * cost.broker_cpu_s / n, "us");
    put(m, "proc.worker_cpu_us_per_task", 1e6 * cost.worker_cpu_s / n, "us");
  } else {
    const double published = total(snap, "mq.published");
    const double publishes = hist_count(snap, "mq.publish_us");
    const double gets = hist_count(snap, "mq.get_us");
    const double empty = total(snap, "mq.get_empty");
    put(m, "mq.publish_calls_per_task", publishes / n, "count");
    put(m, "mq.msgs_per_publish", ratio(published, publishes), "count");
    put(m, "mq.get_calls_per_task", (gets + empty) / n, "count");
    put(m, "mq.get_empty_frac", ratio(empty, gets + empty), "fraction");
    put(m, "mq.publish_us_mean", hist_mean(snap, "mq.publish_us"), "us");
    put(m, "mq.ack_us_mean", hist_mean(snap, "mq.ack_us"), "us");
    put(m, "mq.get_wait_us_per_task", total(snap, "mq.get_us") / n, "us");
    const std::size_t fill = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(ratio(published, publishes))));
    const std::size_t body_bytes =
        journal ? mean_published_body_bytes(appman.broker_journal_path()) : 0;
    mq_us = replay_broker_us(static_cast<std::size_t>(published), fill,
                             journal ? journal->path().string() : "",
                             body_bytes) /
            n;
    put(m, "mq.replay_us_per_task", mq_us, "us");

    const double units = static_cast<double>(rts_counters.units.load());
    const double callback_total_us =
        1e-3 * static_cast<double>(rts_counters.callback_ns.load());
    put(m, "rts.units_per_submit",
        ratio(units, static_cast<double>(rts_counters.submits.load())),
        "count");
    put(m, "rts.callback_us_mean", ratio(callback_total_us, units), "us");
    callback_us = callback_total_us / n;
  }
  // Budget rows: replayed cost of each layer's share of one task. The json
  // row is charged where a task crosses a json boundary (durable journals
  // every result, remote ships every unit), the codec row where it crosses
  // the wire.
  put(m, "budget.state_us_per_task", state_us, "us");
  put(m, "budget.mq_us_per_task", mq_us, "us");
  put(m, "budget.json_us_per_task", w.durable || w.remote ? json_us : 0.0,
      "us");
  put(m, "budget.codec_us_per_task", w.remote ? codec_us : 0.0, "us");
  put(m, "budget.rts_callback_us_per_task", callback_us, "us");
}

Rep run_rep(const RepContext& ctx) {
  const WorkloadSpec& w = *ctx.in.spec;
  Rep rep;
  rep.tasks = ctx.in.total_tasks();
  const double n = static_cast<double>(rep.tasks);

  std::optional<Deployment> remote;
  if (w.remote) remote = deploy();
  std::optional<ScratchDir> journal;
  if (w.durable) {
    journal.emplace(ctx.out_dir /
                    ("journal." + std::to_string(::getpid())));
  }
  const std::vector<PipelinePtr> app = build_app(ctx.in);

  RtsCounters rts_counters;
  rts_counters.timed = ctx.traced;
  AppManagerConfig config;
  if (remote) {
    config.broker_endpoint = remote->endpoint;
    config.remote_workers = true;
  } else {
    config.rts_factory = [&rts_counters] {
      return std::make_shared<NoopRts>(&rts_counters);
    };
  }
  if (journal) config.journal_dir = journal->path().string();
  config.obs.metrics = ctx.traced;

  const std::uint64_t renders0 = mq::body_render_count();
  const double manager_cpu0 = self_cpu_s();
  const double broker_cpu0 = remote ? proc_cpu_s(remote->broker->pid()) : 0;
  const double worker_cpu0 = remote ? proc_cpu_s(remote->worker->pid()) : 0;
  const std::int64_t t_ctor = wall_now_us();
  auto appman = std::make_unique<AppManager>(std::move(config));
  appman->add_pipelines(app);
  appman->run();
  const std::int64_t t_return = wall_now_us();
  const double manager_cpu = self_cpu_s() - manager_cpu0;
  const double broker_cpu =
      remote ? proc_cpu_s(remote->broker->pid()) - broker_cpu0 : 0;
  const double worker_cpu =
      remote ? proc_cpu_s(remote->worker->pid()) - worker_cpu0 : 0;
  const double renders =
      static_cast<double>(mq::body_render_count() - renders0);
  // Read before the checks below allocate: the run's own peak.
  rep.peak_rss_mb = peak_rss_mb();

  // --- end-to-end -----------------------------------------------------
  const Profiler& profiler = *appman->profiler();
  const std::int64_t run_start = profiler.first_us("amgr_run_start").value_or(0);
  const std::int64_t run_stop = profiler.last_us("amgr_run_stop").value_or(0);
  const double run_s = 1e-6 * static_cast<double>(run_stop - run_start);
  MetricMap& m = rep.metrics;
  put(m, "tasks_per_s",
      ratio(static_cast<double>(appman->tasks_done()), run_s), "1/s");
  std::vector<double> latency_ms;
  latency_ms.reserve(rep.tasks);
  for (const auto& [uid, t] : appman->trace().tasks) {
    (void)uid;
    if (!t.resolved_done || t.spans.empty()) continue;
    latency_ms.push_back(1e-3 * static_cast<double>(t.spans.back().end_us -
                                                    t.spans.front().start_us));
  }
  put(m, "latency_samples", static_cast<double>(latency_ms.size()), "count");
  put(m, "task_latency_p50_ms", percentile(latency_ms, 0.50), "ms");
  put(m, "task_latency_p95_ms", percentile(latency_ms, 0.95), "ms");
  put(m, "setup_s", 1e-6 * static_cast<double>(run_start - t_ctor), "s");
  put(m, "teardown_s", 1e-6 * static_cast<double>(t_return - run_stop), "s");
  put(m, "cpu_us_per_task", 1e6 * (manager_cpu + broker_cpu + worker_cpu) / n,
      "us");

  check_rep(*appman, app, rep);

  if (ctx.traced) {
    if (!ctx.trace_out.empty()) {
      obs::write_chrome_trace(appman->trace(), ctx.trace_out.string());
    }
    layer_metrics(*appman, app, w, journal ? &*journal : nullptr, rts_counters,
                  RepCost{manager_cpu, broker_cpu, worker_cpu, renders}, m);
  }

  appman.reset();
  if (remote) {
    const int worker_exit = remote->worker->terminate();
    const int broker_exit = remote->broker->terminate();
    if (worker_exit != 0 || broker_exit != 0) {
      rep.violations.push_back(
          "daemon exit codes: worker " + std::to_string(worker_exit) +
          ", broker " + std::to_string(broker_exit));
      rep.failed = std::max(rep.failed, rep.violations.size());
    }
  }
  return rep;
}

// ----------------------------------------------------------- invocation --

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool traced = false;
  bool smoke = false;
  fs::path out_dir = "e2e-out";
};

struct Invocation {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  MetricMap metrics;  // every metric of this invocation (medians)
};

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Median of each metric over `reps`, with its spread for the report.
MetricMap aggregate(const std::vector<Rep>& reps, json::Value& report) {
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, std::string> units;
  for (const Rep& r : reps) {
    for (const auto& [name, metric] : r.metrics) {
      values[name].push_back(metric.value);
      units[name] = metric.unit;
    }
  }
  MetricMap out;
  for (const auto& [name, v] : values) {
    const double med = median(v);
    out[name] = Metric{med, units[name]};
    const std::vector<double> q = quartiles(v);
    json::Value row;
    row["unit"] = units[name];
    row["median"] = med;
    row["iqr_frac"] = med != 0.0 ? (q[2] - q[0]) / std::fabs(med) : 0.0;
    row["min"] = *std::min_element(v.begin(), v.end());
    row["max"] = *std::max_element(v.begin(), v.end());
    json::Array all;
    for (const double x : v) all.push_back(x);
    row["reps"] = std::move(all);
    report[name] = std::move(row);
  }
  return out;
}

Invocation run_invocation(const Options& opt) {
  const WorkloadSpec* spec = find_workload(opt.workload);
  if (spec == nullptr) throw std::invalid_argument("unknown workload");
  const Inputs in = make_inputs(*spec, opt.seed, opt.smoke);
  fs::create_directories(opt.out_dir);
  const std::string stem =
      opt.workload + "-seed" + std::to_string(opt.seed) +
      (opt.smoke ? "-smoke" : "");

  Invocation inv;
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
  auto account = [&inv](const Rep& r) {
    inv.attempted += r.tasks;
    inv.failed += r.failed;
    for (const std::string& v : r.violations) {
      std::fprintf(stderr, "entk_bench: CORRECTNESS: %s\n", v.c_str());
      inv.correct = false;
    }
  };

  RepContext ctx{in, opt.out_dir, false, {}};
  const Rep warm = run_rep(ctx);  // also the run-only peak RSS
  account(warm);

  const int min_reps = opt.smoke ? 1 : 3;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    // Stop before a round that would end past --seconds, judged by the
    // mean round so far, so the measuring time stays inside the budget.
    const double elapsed = seconds_since(t0);
    const double projected = i == 0 ? 0.0 : elapsed * (i + 1) / i;
    if (i >= min_reps && (projected > opt.seconds || elapsed >= kMaxMeasureS)) {
      break;
    }
    // Traced and untraced reps alternate which goes first, so drift over
    // the invocation hits both sides of trace.overhead_frac alike.
    for (int k = 0; k < (opt.traced ? 2 : 1); ++k) {
      ctx.traced = opt.traced && (k + i) % 2 == 0;
      ctx.trace_out = ctx.traced && traced.empty()
                          ? opt.out_dir / (stem + ".trace.json")
                          : fs::path();
      Rep r = run_rep(ctx);
      account(r);
      (ctx.traced ? traced : untraced).push_back(std::move(r));
    }
  }

  json::Value report;
  report["workload"] = opt.workload;
  report["seed"] = static_cast<std::int64_t>(opt.seed);
  report["seconds"] = opt.seconds;
  report["traced"] = opt.traced;
  report["smoke"] = opt.smoke;
  report["build_type"] = ENTK_BUILD_TYPE;
  report["nproc"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  report["tasks_per_rep"] = static_cast<std::int64_t>(in.total_tasks());
  report["reps_untraced"] = static_cast<std::int64_t>(untraced.size());
  report["reps_traced"] = static_cast<std::int64_t>(traced.size());

  json::Value rows;
  inv.metrics = aggregate(untraced, rows);
  inv.metrics["peak_rss_mb"] = Metric{warm.peak_rss_mb, "MB"};
  if (opt.traced) {
    json::Value traced_rows;
    const double untraced_tps = inv.metrics["tasks_per_s"].value;
    inv.metrics = aggregate(traced, traced_rows);
    double rows_sum = 0.0;
    for (const char* row : {"budget.state_us_per_task", "budget.mq_us_per_task",
                            "budget.json_us_per_task",
                            "budget.codec_us_per_task",
                            "budget.rts_callback_us_per_task"}) {
      rows_sum += inv.metrics[row].value;
    }
    put(inv.metrics, "budget.rows_us_per_task", rows_sum, "us");
    put(inv.metrics, "budget.residual_us_per_task",
        ratio(1e6, untraced_tps) - rows_sum, "us");
    put(inv.metrics, "trace.overhead_frac",
        1.0 - ratio(inv.metrics["tasks_per_s"].value, untraced_tps),
        "fraction");
    report["traced_metrics"] = std::move(traced_rows);
  }
  report["untraced_metrics"] = std::move(rows);
  json::Value summary;
  for (const auto& [name, metric] : inv.metrics) summary[name] = metric.value;
  report["summary"] = std::move(summary);
  report["correct"] = inv.correct;
  report["attempted"] = static_cast<std::int64_t>(inv.attempted);
  report["failed"] = static_cast<std::int64_t>(inv.failed);
  std::ofstream out(opt.out_dir / (stem + (opt.traced ? "-traced" : "") +
                                   ".json"));
  out << report.dump(2) << "\n";
  return inv;
}

/// The contract line: the metrics BENCHMARK.json lists for this kind of
/// invocation (end_to_end untraced, per_layer traced), every digit. Returns
/// "" (and names the culprit on stderr) when one is missing, not finite, or
/// measured in another unit than the file names.
std::string result_line(const Invocation& inv, bool traced) {
  std::ifstream in(ENTK_BENCHMARK_JSON);
  if (!in) throw std::runtime_error("cannot read " ENTK_BENCHMARK_JSON);
  const json::Value listed =
      json::parse(std::string((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>()))
          .at(traced ? "per_layer" : "end_to_end");
  std::string metrics;
  for (const json::Value& def : listed.as_array()) {
    const std::string& name = def.at("name").as_string();
    const auto it = inv.metrics.find(name);
    if (it == inv.metrics.end() || !std::isfinite(it->second.value) ||
        it->second.unit != def.at("unit").as_string()) {
      std::fprintf(stderr,
                   "entk_bench: metric %s missing, not finite or in another "
                   "unit than BENCHMARK.json names\n",
                   name.c_str());
      return "";
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), it->second.value,
                  it->second.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof head,
                "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, ",
                inv.correct ? "true" : "false", inv.attempted, inv.failed);
  return std::string(head) + "\"metrics\": {" + metrics + "}}";
}

void print_metrics(const Invocation& inv) {
  for (const auto& [name, metric] : inv.metrics) {
    std::printf("%s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

// ----------------------------------------------------------------- smoke --

int run_smoke(const Options& base) {
  std::vector<std::string> problems;
  for (const WorkloadSpec& w : kWorkloads) {
    for (const bool traced : {false, true}) {
      Options opt = base;
      opt.workload = w.name;
      opt.traced = traced;
      opt.smoke = true;
      opt.seconds = 0.0;
      const Invocation inv = run_invocation(opt);
      const std::string line = result_line(inv, traced);
      const std::string label =
          std::string(w.name) + (traced ? " traced" : " untraced");
      if (!inv.correct) problems.push_back(label + ": correctness violation");
      if (line.empty()) {
        problems.push_back(label + ": metric set incomplete");
        continue;
      }
      const json::Value parsed = json::parse(line);
      if (parsed.size() != 4 || !parsed.at("correct").is_bool() ||
          parsed.at("attempted").as_int() < 1 ||
          !parsed.at("failed").is_int() || !parsed.at("metrics").is_object()) {
        problems.push_back(label + ": result line has the wrong shape");
      }
      std::printf("smoke %-8s %-8s %zu tasks, %zu metrics\n", w.name,
                  traced ? "traced" : "untraced", inv.attempted,
                  inv.metrics.size());
    }
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "entk_bench: SMOKE: %s\n", p.c_str());
  }
  std::printf("smoke: %s\n", problems.empty() ? "ok" : "FAILED");
  return problems.empty() ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: entk_bench --workload bulk|chain|durable|remote "
               "--seed S [--seconds T]\n"
               "                  [--traced] [--out-dir DIR]\n"
               "       entk_bench --smoke [--out-dir DIR]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--traced") {
      opt.traced = true;
      continue;
    }
    if (flag == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || opt.seconds < 0) return usage();
    } else if (flag == "--out-dir") {
      opt.out_dir = value;
    } else {
      return usage();
    }
  }
  try {
    if (opt.smoke) return run_smoke(opt);
    if (find_workload(opt.workload) == nullptr) return usage();
    const Invocation inv = run_invocation(opt);
    print_metrics(inv);
    const std::string line = result_line(inv, opt.traced);
    if (line.empty()) return 1;
    std::printf("%s\n", line.c_str());
    return inv.correct ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "entk_bench: %s\n", e.what());
    return 1;
  }
}
