// task_throughput: end-to-end dispatch throughput of the batched pipeline.
//
// Pushes M pipelines x N tasks through AppManager with a no-op RTS that
// completes every unit synchronously inside submit(), so the measured time
// is pure EnTK overhead: Enqueue -> Pending -> Emgr -> (instant RTS) ->
// Done -> Dequeue plus all state synchronization. Sweeps the
// task_batch_size knob to show what bulk broker messages, vectored state
// syncs and completion coalescing buy over the strictly per-task flow.
//
// Flags: --pipelines M (default 4), --tasks N per pipeline (default 256),
//        --reps R best-of-R runs per batch size (default 3),
//        --check (exit nonzero unless batch=256 gives >= 3x batch=1),
//        --profile PREFIX (dump one profiler CSV per batch size),
//        --trace-out PATH / --metrics-out PATH (observability exports of
//        the first batch=256 run: Chrome trace JSON / metrics JSONL),
//        --obs-check (batch=256 only: best-of-R with live metrics off vs
//        on; exit nonzero when the instrumented run loses >= 5% tasks/s),
//        --payload-sweep (64 B / 4 KiB / 64 KiB payloads through 3 broker
//        hops, eager serialize-per-hop vs zero-copy shared payloads;
//        writes BENCH_dispatch.json),
//        --zero-copy-check (payload sweep + exit nonzero unless zero-copy
//        gives >= 1.5x eager msgs/s at 4 KiB),
//        --journal-bench (durable publish latency, per-record flush vs
//        group commit; writes BENCH_dispatch.json),
//        --journal-check (journal bench + exit nonzero unless group commit
//        improves durable publish p95),
//        --dispatch-bench (raw broker hot path: publish_batch / get_batch /
//        ack_batch cycles of 64 B messages across many queues, at shard
//        counts 1 and 4; writes BENCH_dispatch.json),
//        --dispatch-check (dispatch bench + exit nonzero unless the
//        shards=4 broker moves >= 1M msgs/s),
//        --json-out PATH (where the sweep/journal results JSON goes;
//        default BENCH_dispatch.json).
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/util.hpp"
#include "src/mq/broker.hpp"
#include "src/rts/rts.hpp"

namespace {

using entk::rts::Rts;
using entk::rts::RtsStats;
using entk::rts::TaskUnit;
using entk::rts::UnitOutcome;
using entk::rts::UnitResult;

// Completes every unit inside submit() on the caller's thread: zero
// execution cost, zero latency, so EnTK's own dispatch path is the only
// thing on the clock.
class NoopRts final : public Rts {
 public:
  void initialize() override {}

  void set_completion_callback(
      std::function<void(const UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }

  void submit(std::vector<TaskUnit> units) override {
    stats_.units_submitted += units.size();
    for (const TaskUnit& unit : units) {
      UnitResult result;
      result.uid = unit.uid;
      result.name = unit.name;
      result.outcome = UnitOutcome::Done;
      result.exit_code = 0;
      result.metadata = unit.metadata;  // echo payload through the done queue
      callback_(result);
      ++stats_.units_completed;
    }
  }

  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  RtsStats stats() const override { return stats_; }
  std::vector<std::string> in_flight_units() const override { return {}; }

 private:
  std::function<void(const UnitResult&)> callback_;
  RtsStats stats_;
};

struct Sample {
  std::size_t batch = 0;
  double wall_s = 0.0;
  double tasks_per_s = 0.0;
  double us_per_task = 0.0;
};

struct ObsOptions {
  bool metrics = false;
  std::string trace_out;
  std::string metrics_out;
};

Sample run_once(int pipelines, int tasks, std::size_t batch,
                const char* profile_csv = nullptr,
                const ObsOptions& obs = {}) {
  entk::bench::EnsembleSpec spec;
  spec.pipelines = pipelines;
  spec.stages = 1;
  spec.tasks = tasks;
  spec.duration_s = 0.0;

  entk::AppManagerConfig config;
  config.resource.resource = "local";
  config.resource.cpus = 16;
  config.resource.walltime_s = 3600;
  config.task_batch_size = batch;
  config.obs.metrics = obs.metrics;
  config.obs.trace_out = obs.trace_out;
  config.obs.metrics_out = obs.metrics_out;
  config.rts_factory = [] { return std::make_shared<NoopRts>(); };

  entk::AppManager appman(std::move(config));
  std::vector<entk::PipelinePtr> ensemble = entk::bench::make_ensemble(spec);
  appman.add_pipelines(std::move(ensemble));

  const auto t0 = std::chrono::steady_clock::now();
  appman.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (profile_csv != nullptr) appman.profiler()->dump_csv(profile_csv);
  const std::size_t total = static_cast<std::size_t>(pipelines) * tasks;
  if (appman.tasks_done() != total) {
    std::fprintf(stderr, "FATAL: batch=%zu resolved %zu of %zu tasks\n",
                 batch, appman.tasks_done(), total);
    std::exit(2);
  }
  Sample s;
  s.batch = batch;
  s.wall_s = wall_s;
  s.tasks_per_s = static_cast<double>(total) / wall_s;
  s.us_per_task = 1e6 * wall_s / static_cast<double>(total);
  return s;
}

// ------------------------------------------------------- payload hop sweep

struct HopSample {
  std::size_t payload_bytes = 0;
  double wall_s = 0.0;
  double msgs_per_s = 0.0;
  double mb_per_s = 0.0;
};

// Push `messages` structured payloads of `payload_bytes` through three
// in-process broker hops (publish -> consume -> re-publish), mirroring the
// q.pending -> agent -> q.completed chain a task payload crosses. Zero-copy
// mode forwards the shared parsed value (a refcount bump per hop); eager
// mode renders the bytes at every publish (the producer included) and
// re-parses at every consume, which is what the seed's serialize-per-hop
// messages did.
HopSample run_hops_once(std::size_t payload_bytes, int messages, bool eager) {
  constexpr int kHops = 3;
  constexpr std::size_t kBatch = 64;
  entk::mq::Broker broker("bench_hops");
  for (int h = 0; h <= kHops; ++h) {
    broker.declare_queue("hop" + std::to_string(h));
  }
  const std::string data(payload_bytes, 'x');

  const auto t0 = std::chrono::steady_clock::now();
  {  // Producer: structured payloads in, batched like the WFProcessor.
    std::vector<entk::mq::Message> out;
    out.reserve(kBatch);
    for (int i = 0; i < messages; ++i) {
      entk::json::Value payload;
      payload["uid"] = i;
      payload["data"] = data;
      if (eager) {
        entk::mq::Message m;
        m.routing_key = "hop0";
        m.set_body(payload.dump());  // seed: serialize at the producer
        out.push_back(std::move(m));
      } else {
        out.push_back(
            entk::mq::Message::json_body("hop0", std::move(payload)));
      }
      if (out.size() == kBatch || i + 1 == messages) {
        broker.publish_batch("hop0", std::move(out));
        out.clear();
        out.reserve(kBatch);
      }
    }
  }
  for (int h = 0; h < kHops; ++h) {  // Relay hops: consume and forward.
    const std::string from = "hop" + std::to_string(h);
    const std::string to = "hop" + std::to_string(h + 1);
    int consumed = 0;
    while (consumed < messages) {
      std::vector<entk::mq::Delivery> ds = broker.get_batch(from, kBatch, 1.0);
      std::vector<entk::mq::Message> fwd;
      std::vector<std::uint64_t> tags;
      fwd.reserve(ds.size());
      tags.reserve(ds.size());
      for (entk::mq::Delivery& d : ds) {
        std::shared_ptr<const entk::json::Value> payload = d.message.payload();
        entk::mq::Message m;
        m.routing_key = to;
        if (eager) {
          m.set_body(payload->dump());  // seed: serialize again per hop
        } else {
          m.set_payload(std::move(payload));  // refcount bump only
        }
        fwd.push_back(std::move(m));
        tags.push_back(d.delivery_tag);
      }
      consumed += static_cast<int>(ds.size());
      broker.publish_batch(to, std::move(fwd));
      broker.ack_batch(from, tags);
    }
  }
  std::size_t checksum = 0;
  {  // Final consumer: read the payload the way a component would.
    const std::string last = "hop" + std::to_string(kHops);
    int consumed = 0;
    while (consumed < messages) {
      std::vector<entk::mq::Delivery> ds = broker.get_batch(last, kBatch, 1.0);
      std::vector<std::uint64_t> tags;
      tags.reserve(ds.size());
      for (entk::mq::Delivery& d : ds) {
        checksum += d.message.payload()->at("data").as_string().size();
        tags.push_back(d.delivery_tag);
      }
      consumed += static_cast<int>(ds.size());
      broker.ack_batch(last, tags);
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (checksum != payload_bytes * static_cast<std::size_t>(messages)) {
    std::fprintf(stderr, "FATAL: hop sweep lost payload bytes\n");
    std::exit(2);
  }
  HopSample s;
  s.payload_bytes = payload_bytes;
  s.wall_s = wall_s;
  s.msgs_per_s = static_cast<double>(messages) / wall_s;
  s.mb_per_s = s.msgs_per_s * static_cast<double>(payload_bytes) / 1e6;
  return s;
}

// ------------------------------------------------ raw broker dispatch rate

struct DispatchSample {
  std::size_t shards = 0;
  double wall_s = 0.0;
  double msgs_per_s = 0.0;
};

// The distilled million-tasks/s hot path: full broker message cycles
// (publish_batch -> get_batch -> ack_batch, batch 256) of 64 B messages
// across kQueues queues spread over the broker's shards. Workers own
// disjoint queue sets, so with shards > 1 they touch disjoint lock + map
// domains; the queue lookup itself is one atomic snapshot load. The body
// is a single shared 64 B buffer (refcount bump per message), matching
// how the zero-copy pipeline republishes payloads.
DispatchSample run_dispatch_once(std::size_t shards, int messages,
                                 unsigned threads) {
  constexpr std::size_t kBatch = 256;
  constexpr std::size_t kQueues = 8;
  entk::mq::Broker broker("bench_dispatch", "", {}, shards);
  std::vector<std::string> queues;
  for (std::size_t q = 0; q < kQueues; ++q) {
    queues.push_back("dispatch" + std::to_string(q));
    broker.declare_queue(queues.back());
  }
  const auto body =
      std::make_shared<const std::string>(std::string(64, 'x'));

  const int per_thread = messages / static_cast<int>(threads);
  auto worker = [&](unsigned t) {
    // Queues are partitioned round-robin across workers; each worker
    // cycles through its own set so every shard stays warm.
    std::vector<const std::string*> mine;
    for (std::size_t q = t; q < kQueues; q += threads) {
      mine.push_back(&queues[q]);
    }
    std::vector<entk::mq::Message> out;
    std::vector<std::uint64_t> tags;
    int sent = 0;
    std::size_t turn = 0;
    while (sent < per_thread) {
      const std::string& queue = *mine[turn++ % mine.size()];
      const std::size_t n = std::min<std::size_t>(
          kBatch, static_cast<std::size_t>(per_thread - sent));
      out.clear();
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        entk::mq::Message m;
        m.set_body(body);  // shared buffer: refcount bump, no copy
        out.push_back(std::move(m));
      }
      broker.publish_batch(queue, std::move(out));
      std::vector<entk::mq::Delivery> ds = broker.get_batch(queue, n, 1.0);
      tags.clear();
      tags.reserve(ds.size());
      for (const entk::mq::Delivery& d : ds) tags.push_back(d.delivery_tag);
      broker.ack_batch(queue, tags);
      sent += static_cast<int>(ds.size());
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (threads <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t);
    for (std::thread& th : pool) th.join();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const entk::mq::BrokerStats stats = broker.stats();
  if (stats.acked < static_cast<std::size_t>(per_thread) * threads) {
    std::fprintf(stderr, "FATAL: dispatch bench lost messages (%zu acked)\n",
                 stats.acked);
    std::exit(2);
  }
  DispatchSample s;
  s.shards = broker.shard_count();
  s.wall_s = wall_s;
  s.msgs_per_s = static_cast<double>(stats.acked) / wall_s;
  return s;
}

// -------------------------------------------------- durable publish latency

struct JournalSample {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
};

// Durable publish latency distribution: every publish appends a journal
// record, either flushed per record (the seed's fflush-per-publish) or
// handed to the group-commit flusher (size-or-deadline batches).
JournalSample run_journal_once(bool sync_every_append, int publishes,
                               std::size_t payload_bytes) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("entk_bench_journal_" + std::to_string(::getpid()) +
       (sync_every_append ? "_sync" : "_gc"));
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(publishes));
  {
    entk::mq::JournalConfig cfg;
    cfg.sync_every_append = sync_every_append;
    entk::mq::Broker broker("bench_journal", dir.string(), cfg);
    entk::mq::QueueOptions opts;
    opts.durable = true;
    broker.declare_queue("durable", opts);
    const std::string data(payload_bytes, 'x');
    for (int i = 0; i < publishes; ++i) {
      entk::json::Value payload;
      payload["uid"] = i;
      payload["data"] = data;
      entk::mq::Message msg =
          entk::mq::Message::json_body("durable", std::move(payload));
      const auto t0 = std::chrono::steady_clock::now();
      broker.publish("durable", std::move(msg));
      lat_us.push_back(1e6 * std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count());
    }
    broker.close();  // durability barrier: drain the final segment
  }
  fs::remove_all(dir);

  std::sort(lat_us.begin(), lat_us.end());
  auto pct = [&lat_us](double p) {
    const std::size_t i = std::min(
        lat_us.size() - 1, static_cast<std::size_t>(p * lat_us.size()));
    return lat_us[i];
  };
  JournalSample s;
  s.p50_us = pct(0.50);
  s.p95_us = pct(0.95);
  s.p99_us = pct(0.99);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const int pipelines =
      static_cast<int>(entk::bench::flag_int(argc, argv, "--pipelines", 4));
  const int tasks =
      static_cast<int>(entk::bench::flag_int(argc, argv, "--tasks", 256));
  const long reps = entk::bench::flag_int(argc, argv, "--reps", 3);
  const bool check = entk::bench::flag_present(argc, argv, "--check");

  std::printf("task_throughput: %d pipeline(s) x %d task(s), no-op RTS\n\n",
              pipelines, tasks);

  // --profile PREFIX: dump one CSV event trace per batch size.
  std::string profile_prefix;
  std::string json_out = "BENCH_dispatch.json";
  ObsOptions export_obs;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--profile") profile_prefix = argv[i + 1];
    if (std::string(argv[i]) == "--trace-out") export_obs.trace_out = argv[i + 1];
    if (std::string(argv[i]) == "--metrics-out")
      export_obs.metrics_out = argv[i + 1];
    if (std::string(argv[i]) == "--json-out") json_out = argv[i + 1];
  }
  export_obs.metrics = !export_obs.trace_out.empty() ||
                       !export_obs.metrics_out.empty();

  const bool zero_copy_check =
      entk::bench::flag_present(argc, argv, "--zero-copy-check");
  const bool payload_sweep =
      zero_copy_check || entk::bench::flag_present(argc, argv, "--payload-sweep");
  const bool journal_check =
      entk::bench::flag_present(argc, argv, "--journal-check");
  const bool journal_bench =
      journal_check || entk::bench::flag_present(argc, argv, "--journal-bench");
  const bool dispatch_check =
      entk::bench::flag_present(argc, argv, "--dispatch-check");
  const bool dispatch_bench =
      dispatch_check ||
      entk::bench::flag_present(argc, argv, "--dispatch-bench");

  if (payload_sweep || journal_bench || dispatch_bench) {
    entk::json::Value doc;
    doc["bench"] = "dispatch";
    bool failed = false;

    if (payload_sweep) {
      std::printf("payload sweep: 3 broker hops, eager vs zero-copy\n");
      std::printf("%14s %14s %14s %10s %12s\n", "payload", "eager msg/s",
                  "zerocopy msg/s", "speedup", "zc MB/s");
      entk::json::Array rows;
      double speedup_4k = 0.0;
      for (std::size_t bytes :
           {std::size_t{64}, std::size_t{4096}, std::size_t{65536}}) {
        // Scale the message count down with payload size so every row costs
        // roughly the same wall time.
        const int messages = bytes <= 64 ? 8192 : bytes <= 4096 ? 2048 : 512;
        HopSample eager, zero;
        for (long r = 0; r < reps; ++r) {  // best-of-R, paired per rep
          const HopSample e = run_hops_once(bytes, messages, true);
          const HopSample z = run_hops_once(bytes, messages, false);
          if (e.msgs_per_s > eager.msgs_per_s) eager = e;
          if (z.msgs_per_s > zero.msgs_per_s) zero = z;
        }
        const double speedup = zero.msgs_per_s / eager.msgs_per_s;
        if (bytes == 4096) speedup_4k = speedup;
        std::printf("%14zu %14.0f %14.0f %9.2fx %12.1f\n", bytes,
                    eager.msgs_per_s, zero.msgs_per_s, speedup, zero.mb_per_s);
        entk::json::Value row;
        row["payload_bytes"] = static_cast<std::int64_t>(bytes);
        row["messages"] = messages;
        row["hops"] = 3;
        row["eager_msgs_per_s"] = eager.msgs_per_s;
        row["zero_copy_msgs_per_s"] = zero.msgs_per_s;
        row["zero_copy_mb_per_s"] = zero.mb_per_s;
        row["speedup"] = speedup;
        rows.push_back(std::move(row));
      }
      doc["hop_sweep"] = std::move(rows);

      if (zero_copy_check && speedup_4k < 1.5) {
        std::fprintf(stderr,
                     "ZERO-COPY CHECK FAILED: expected >= 1.5x at 4 KiB, "
                     "got %.2fx\n",
                     speedup_4k);
        failed = true;
      }
    }

    if (journal_bench) {
      // Small records: the per-record policy's fixed flush syscall dominates
      // the publish, which is exactly the cost group commit amortizes.
      const int publishes = 4000;
      const std::size_t bytes = 512;
      JournalSample sync, gc;
      bool first = true;
      for (long r = 0; r < reps; ++r) {  // best (lowest p95) of R
        const JournalSample s = run_journal_once(true, publishes, bytes);
        const JournalSample g = run_journal_once(false, publishes, bytes);
        if (first || s.p95_us < sync.p95_us) sync = s;
        if (first || g.p95_us < gc.p95_us) gc = g;
        first = false;
      }
      std::printf("\ndurable publish latency, %d x %zu B records:\n",
                  publishes, bytes);
      std::printf("%18s %10s %10s %10s\n", "flush policy", "p50 (us)",
                  "p95 (us)", "p99 (us)");
      std::printf("%18s %10.1f %10.1f %10.1f\n", "per-record", sync.p50_us,
                  sync.p95_us, sync.p99_us);
      std::printf("%18s %10.1f %10.1f %10.1f\n", "group-commit", gc.p50_us,
                  gc.p95_us, gc.p99_us);
      entk::json::Value j;
      j["publishes"] = publishes;
      j["payload_bytes"] = static_cast<std::int64_t>(bytes);
      j["per_record_p50_us"] = sync.p50_us;
      j["per_record_p95_us"] = sync.p95_us;
      j["per_record_p99_us"] = sync.p99_us;
      j["group_commit_p50_us"] = gc.p50_us;
      j["group_commit_p95_us"] = gc.p95_us;
      j["group_commit_p99_us"] = gc.p99_us;
      j["p95_speedup"] = sync.p95_us / gc.p95_us;
      doc["journal"] = std::move(j);

      if (journal_check && !(gc.p95_us < sync.p95_us)) {
        std::fprintf(stderr,
                     "JOURNAL CHECK FAILED: group-commit p95 %.1f us is not "
                     "better than per-record %.1f us\n",
                     gc.p95_us, sync.p95_us);
        failed = true;
      }
    }

    if (dispatch_bench) {
      // The million-tasks/s gate: raw broker message cycles at 64 B, one
      // shard (the historical broker) vs four (the sharded hot path). On a
      // single hardware thread one worker thread is the fastest plan; give
      // the sharded row one worker per 2 shards up to the core count so a
      // multi-core box also exercises cross-shard parallelism.
      const int messages =
          static_cast<int>(entk::bench::flag_int(argc, argv,
                                                 "--dispatch-messages",
                                                 1 << 20));
      const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
      std::printf("\nraw dispatch, %d x 64 B messages "
                  "(publish/get/ack batches of 256, 8 queues):\n",
                  messages);
      std::printf("%8s %8s %10s %14s\n", "shards", "threads", "wall (s)",
                  "msgs/s");
      entk::json::Array rows;
      double sharded_rate = 0.0;
      for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        const unsigned threads = std::min<unsigned>(
            cores, shards > 1 ? static_cast<unsigned>(shards / 2) : 1u);
        DispatchSample best;
        for (long r = 0; r < reps; ++r) {
          const DispatchSample s =
              run_dispatch_once(shards, messages, threads);
          if (s.msgs_per_s > best.msgs_per_s) best = s;
        }
        if (shards > 1) sharded_rate = best.msgs_per_s;
        std::printf("%8zu %8u %10.3f %14.0f\n", best.shards, threads,
                    best.wall_s, best.msgs_per_s);
        entk::json::Value row;
        row["shards"] = static_cast<std::int64_t>(best.shards);
        row["threads"] = static_cast<std::int64_t>(threads);
        row["payload_bytes"] = 64;
        row["messages"] = messages;
        row["wall_s"] = best.wall_s;
        row["msgs_per_s"] = best.msgs_per_s;
        rows.push_back(std::move(row));
      }
      doc["dispatch"] = std::move(rows);

      if (dispatch_check && sharded_rate < 1e6) {
        std::fprintf(stderr,
                     "DISPATCH CHECK FAILED: expected >= 1000000 msgs/s with "
                     "shards=4, got %.0f\n",
                     sharded_rate);
        failed = true;
      }
    }

    std::ofstream out(json_out);
    out << doc.dump() << "\n";
    std::printf("\nresults written to %s\n", json_out.c_str());
    return failed ? 1 : 0;
  }

  if (entk::bench::flag_present(argc, argv, "--obs-check")) {
    // Acceptance gate for the obs subsystem: with live metrics recording on
    // every broker/wfp/emgr hot path, batch=256 dispatch throughput must
    // stay within 5% of the uninstrumented run. Paired design: each rep runs
    // off then on back to back, so machine-load drift over the sweep hits
    // both sides of a pair equally; the median per-pair ratio discards
    // outlier pairs entirely. Exports (file I/O) happen in one untimed run
    // so the gate measures in-run overhead only.
    std::vector<double> ratios;
    Sample off_best, on_best;
    for (long r = 0; r < reps; ++r) {
      const Sample off = run_once(pipelines, tasks, 256);
      const Sample on =
          run_once(pipelines, tasks, 256, nullptr, ObsOptions{true, "", ""});
      ratios.push_back(on.tasks_per_s / off.tasks_per_s);
      if (off.tasks_per_s > off_best.tasks_per_s) off_best = off;
      if (on.tasks_per_s > on_best.tasks_per_s) on_best = on;
    }
    if (!export_obs.trace_out.empty() || !export_obs.metrics_out.empty()) {
      run_once(pipelines, tasks, 256, nullptr, export_obs);
    }
    std::sort(ratios.begin(), ratios.end());
    const double ratio = ratios[ratios.size() / 2];
    std::printf("%12s %10s %14s %14s\n", "batch_size", "wall (s)", "tasks/s",
                "us/task");
    std::printf("%12s %10.3f %14.0f %14.1f\n", "256 (off)", off_best.wall_s,
                off_best.tasks_per_s, off_best.us_per_task);
    std::printf("%12s %10.3f %14.0f %14.1f\n", "256 (obs)", on_best.wall_s,
                on_best.tasks_per_s, on_best.us_per_task);
    std::printf("\nobs-on vs obs-off throughput (median of %zu pairs): %.3fx\n",
                ratios.size(), ratio);
    if (ratio < 0.95) {
      std::fprintf(stderr,
                   "OBS CHECK FAILED: metrics+tracing cost %.1f%% throughput "
                   "(budget: 5%%)\n",
                   100.0 * (1.0 - ratio));
      return 1;
    }
    return 0;
  }

  std::vector<Sample> samples;
  std::printf("%12s %10s %14s %14s\n", "batch_size", "wall (s)", "tasks/s",
              "us/task");
  for (std::size_t batch : {std::size_t{1}, std::size_t{16},
                            std::size_t{256}}) {
    const std::string csv =
        profile_prefix.empty()
            ? ""
            : profile_prefix + "_b" + std::to_string(batch) + ".csv";
    // Best-of-R: dispatch is latency-bound, so the fastest rep is the one
    // least disturbed by scheduler noise on a shared machine.
    Sample s = run_once(pipelines, tasks, batch,
                        csv.empty() ? nullptr : csv.c_str(),
                        batch == 256 ? export_obs : ObsOptions{});
    for (long r = 1; r < reps; ++r) {
      const Sample again = run_once(pipelines, tasks, batch);
      if (again.tasks_per_s > s.tasks_per_s) s = again;
    }
    std::printf("%12zu %10.3f %14.0f %14.1f\n", s.batch, s.wall_s,
                s.tasks_per_s, s.us_per_task);
    samples.push_back(s);
  }

  const double speedup = samples.back().tasks_per_s / samples.front().tasks_per_s;
  std::printf("\nbatch=256 vs batch=1: %.2fx tasks/s\n", speedup);
  if (check && speedup < 3.0) {
    std::fprintf(stderr, "CHECK FAILED: expected >= 3x, got %.2fx\n", speedup);
    return 1;
  }
  return 0;
}
