// Direct tests of the reusable worker runtime (src/worker): inline-unit
// execution without a registry, the at-least-once delivery ledger
// (ack-on-completion), bounded prefetch, and the registration/liveness
// directory — the pieces the entk_worker daemon is assembled from, tested
// against an in-process broker so no TCP or fork is involved.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "src/core/state_store.hpp"
#include "src/core/wfprocessor.hpp"
#include "src/rts/local_rts.hpp"
#include "src/worker/registration.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk {
namespace {

/// Fixture wiring a WorkerRuntime to an in-process broker the way the
/// daemon wires one to a RemoteBroker: no ObjectRegistry, units arrive
/// inline on the Pending queue, results leave on the Done queue.
class WorkerRuntimeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("worker_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    clock_ = std::make_shared<ScaledClock>(1e-4);
    // Empty registry: the synchronizer drains q.states and drops
    // transitions for tasks it does not know, exactly like the manager
    // side before it has seen a worker's states (and proving the runtime
    // itself never needs task objects).
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (runtime_) runtime_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  void start_runtime(worker::WorkerRuntimeConfig cfg = {}, int rts_workers = 2) {
    cfg.supervision.heartbeat_interval_s = 0.005;
    rts::RtsFactory factory = [this, rts_workers]() -> rts::RtsPtr {
      return std::make_shared<rts::LocalRts>(
          rts::LocalRtsConfig{.workers = rts_workers}, clock_, profiler_);
    };
    // The daemon's resolver: nothing to resolve, units must arrive inline.
    worker::UnitResolver resolver =
        [](const std::string&) -> std::optional<rts::TaskUnit> {
      return std::nullopt;
    };
    runtime_ = std::make_unique<worker::WorkerRuntime>(
        "worker_runtime", cfg, broker_, resolver, "q.pending", "q.completed",
        "q.states", factory, profiler_);
    runtime_->acquire_resources();
    runtime_->start();
  }

  static rts::TaskUnit make_unit(const std::string& uid, double duration_s) {
    rts::TaskUnit u;
    u.uid = uid;
    u.name = uid;
    u.executable = "sleep";
    u.duration_s = duration_s;
    return u;
  }

  /// Publish units the way the --workers WFProcessor does: one
  /// {"units": [...]} message per call.
  void publish_units(const std::vector<rts::TaskUnit>& units) {
    json::Value msg;
    json::Array arr;
    for (const rts::TaskUnit& u : units) arr.push_back(u.to_json());
    msg["units"] = std::move(arr);
    broker_->publish("q.pending",
                     mq::Message::json_body("q.pending", std::move(msg)));
  }

  /// Wait for n completion records, unpacked from the {"results": [...]}
  /// messages on the Done queue.
  std::vector<json::Value> collect(std::size_t n, double timeout_s = 5.0) {
    std::vector<json::Value> out;
    const double deadline = wall_now_s() + timeout_s;
    while (out.size() < n && wall_now_s() < deadline) {
      auto d = broker_->get("q.completed", 0.01);
      if (!d) continue;
      broker_->ack("q.completed", d->delivery_tag);
      for (const json::Value& r :
           d->message.payload()->at("results").as_array()) {
        out.push_back(r);
      }
    }
    return out;
  }

  mq::QueueDepth depth(const std::string& queue) {
    for (const mq::QueueDepth& d : broker_->depth_snapshot()) {
      if (d.queue == queue) return d;
    }
    return {};
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  ClockPtr clock_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<worker::WorkerRuntime> runtime_;
};

TEST_F(WorkerRuntimeFixture, ExecutesInlineUnitsWithoutRegistry) {
  start_runtime();
  publish_units({make_unit("task.w1", 0.5), make_unit("task.w2", 0.5),
                 make_unit("task.w3", 0.5)});
  const auto results = collect(3);
  ASSERT_EQ(results.size(), 3u);
  std::set<std::string> seen;
  for (const json::Value& r : results) {
    seen.insert(r.get_string("uid", ""));
    EXPECT_EQ(r.get_string("outcome", ""), "DONE");
  }
  EXPECT_EQ(seen.size(), 3u);
  // The counter increments after the Done publish; allow the callback to
  // finish its bookkeeping.
  for (int spin = 0; spin < 1000 && runtime_->tasks_done() < 3; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->tasks_done(), 3u);
}

TEST_F(WorkerRuntimeFixture, AckOnCompletionHoldsDeliveryUntilUnitsFinish) {
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  start_runtime(cfg);
  // 20,000 virtual s = 2 s wall at 1e-4: long enough to observe the
  // delivery parked on the unacked ledger mid-execution.
  publish_units({make_unit("task.held", 20000.0)});
  for (int spin = 0; spin < 2000 && runtime_->in_flight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime_->in_flight(), 1u);
  // The claim is held open: not ready (fetched), not acked (running). A
  // worker killed here would leave the message requeueable.
  mq::QueueDepth d = depth("q.pending");
  EXPECT_EQ(d.ready, 0u);
  EXPECT_EQ(d.unacked, 1u);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  // Completion releases the claim (ack follows the Done publish).
  for (int spin = 0; spin < 2000 && depth("q.pending").unacked != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  d = depth("q.pending");
  EXPECT_EQ(d.ready, 0u);
  EXPECT_EQ(d.unacked, 0u);
  EXPECT_EQ(runtime_->in_flight(), 0u);
}

TEST_F(WorkerRuntimeFixture, BoundedPrefetchCapsUnitsHeldAtOnce) {
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.max_in_flight = 2;
  cfg.submit_batch = 64;
  // Plenty of RTS capacity: only the prefetch cap limits concurrency.
  start_runtime(cfg, /*rts_workers=*/8);
  std::vector<std::string> uids;
  for (int i = 0; i < 8; ++i) {
    const std::string uid = "task.cap" + std::to_string(i);
    uids.push_back(uid);
    // One message per unit, as the inline-units WFProcessor publishes.
    publish_units({make_unit(uid, 2000.0)});  // 0.2 s wall each
  }
  // While draining, the runtime never holds more than max_in_flight units;
  // the surplus stays ready on the shared queue for sibling workers.
  std::size_t max_seen = 0;
  std::set<std::string> seen;
  const double deadline = wall_now_s() + 10.0;
  while (seen.size() < uids.size() && wall_now_s() < deadline) {
    max_seen = std::max(max_seen, runtime_->in_flight());
    auto d = broker_->get("q.completed", 0.005);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    for (const json::Value& r :
         d->message.payload()->at("results").as_array()) {
      seen.insert(r.get_string("uid", ""));
    }
  }
  EXPECT_EQ(seen.size(), uids.size());
  EXPECT_LE(max_seen, 2u);
  EXPECT_GE(max_seen, 1u);
}

TEST_F(WorkerRuntimeFixture, RtsRestartResubmitsCachedInlineUnits) {
  // The daemon has no resolver; a restarted RTS must be refilled from the
  // in-flight unit cache instead.
  worker::WorkerRuntimeConfig cfg;
  cfg.ack_on_completion = true;
  cfg.supervision.rts_restart_limit = 1;
  start_runtime(cfg);
  publish_units({make_unit("task.restart", 20000.0)});
  for (int spin = 0; spin < 2000 && runtime_->in_flight() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(runtime_->in_flight(), 1u);
  runtime_->inject_rts_failure();
  for (int spin = 0; spin < 1000 && runtime_->rts_restarts() < 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->rts_restarts(), 1);
  // The cached unit is back in flight on the fresh RTS instance.
  for (int spin = 0; spin < 1000 && runtime_->rts_stats().units_in_flight == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(runtime_->rts_stats().units_in_flight, 1u);
  // The pending delivery is still claimed by this runtime, not requeued.
  EXPECT_EQ(depth("q.pending").unacked, 1u);
}

// ------------------------------------------------- registration/liveness

TEST(WorkerDirectory, TracksRegisterHeartbeatTtlAndDeregister) {
  auto broker = std::make_shared<mq::Broker>("dir_test");
  auto profiler = std::make_shared<Profiler>();
  worker::WorkerDirectory directory(broker, /*ttl_s=*/0.15, profiler);
  directory.start();
  worker::WorkerAnnouncer announcer(broker, "w_test", 4);

  announcer.announce_register();
  for (int spin = 0; spin < 1000 && directory.registered_workers() == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(directory.registered_workers(), 1u);
  EXPECT_EQ(directory.live_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].worker_id, "w_test");
    EXPECT_EQ(workers[0].cores, 4);
    EXPECT_FALSE(workers[0].deregistered);
  }

  // Silence past the TTL: still registered, no longer live.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(directory.registered_workers(), 1u);
  EXPECT_EQ(directory.live_workers(), 0u);

  // A heartbeat revives it and carries the progress counters.
  announcer.heartbeat(/*tasks_done=*/7, /*in_flight=*/2);
  for (int spin = 0; spin < 1000 && directory.live_workers() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(directory.live_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_EQ(workers[0].tasks_done, 7u);
    EXPECT_EQ(workers[0].in_flight, 2u);
  }

  // Deregister: drops out of the live count immediately, keeps history.
  announcer.announce_deregister(/*tasks_done=*/9);
  for (int spin = 0; spin < 1000 && directory.live_workers() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(directory.live_workers(), 0u);
  EXPECT_EQ(directory.registered_workers(), 1u);
  {
    const auto workers = directory.workers();
    ASSERT_EQ(workers.size(), 1u);
    EXPECT_TRUE(workers[0].deregistered);
    EXPECT_EQ(workers[0].tasks_done, 9u);
  }
  directory.stop();
  broker->close();
}

// ----------------------------------------- at-least-once deduplication

/// At-least-once delivery means a kill/requeue race can execute one task
/// twice; the WFProcessor must resolve it exactly once. Drive its Dequeue
/// side directly with a duplicated completion.
TEST(WorkerDedup, DuplicateResultResolvesTaskExactlyOnce) {
  auto broker = std::make_shared<mq::Broker>("dedup_test");
  broker->declare_queue("q.pending");
  broker->declare_queue("q.completed");
  broker->declare_queue("q.states");
  auto profiler = std::make_shared<Profiler>();
  ObjectRegistry registry;
  StateStore store;
  Synchronizer synchronizer(broker, "q.states", &registry, &store, profiler);
  synchronizer.start();

  auto pipeline = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("t");
  task->duration_s = 1.0;
  stage->add_task(task);
  pipeline->add_stage(stage);
  registry.add_pipeline(pipeline);

  WfConfig cfg;
  cfg.inline_units = true;
  WFProcessor wfp(cfg, broker, &registry, "q.pending", "q.completed",
                  "q.states", profiler);
  wfp.start();

  // The worker side: consume the pending unit, advance the states the way
  // a WorkerRuntime does, then deliver the SAME completion twice (as after
  // a kill → requeue → both workers report).
  auto d = broker->get("q.pending", 2.0);
  ASSERT_TRUE(d.has_value());
  broker->ack("q.pending", d->delivery_tag);
  const json::Value body = *d->message.payload();
  ASSERT_TRUE(body.contains("units"));  // inline mode ships full units
  const json::Array& units = body.at("units").as_array();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].get_string("uid", ""), task->uid());

  SyncClient sync(broker, "fake_worker", "q.states", "q.ack.fake");
  sync.sync(task->uid(), "task", "SCHEDULED", "SUBMITTING", true);
  sync.sync(task->uid(), "task", "SUBMITTING", "SUBMITTED", true);
  json::Value result;
  result["uid"] = task->uid();
  result["outcome"] = "DONE";
  result["exit_code"] = 0;
  auto publish_result = [&broker](const json::Value& r) {
    json::Value msg;
    msg["results"] = json::Array{r};
    broker->publish("q.completed",
                    mq::Message::json_body("q.completed", std::move(msg)));
  };
  publish_result(result);
  // Second copy claims FAILED with a nonzero exit code: if dedup ever
  // regressed, the task state or exit code would change observably.
  result["outcome"] = "FAILED";
  result["exit_code"] = 13;
  publish_result(result);

  for (int spin = 0; spin < 3000 && task->state() != TaskState::Done; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(task->state(), TaskState::Done);
  // Give the duplicate time to flow through Dequeue, then re-check: the
  // first resolution stands.
  for (int spin = 0; spin < 2000; ++spin) {
    bool drained = true;
    for (const mq::QueueDepth& qd : broker->depth_snapshot()) {
      if (qd.queue == "q.completed" && (qd.ready != 0 || qd.unacked != 0)) {
        drained = false;
      }
    }
    if (drained) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(task->state(), TaskState::Done);
  EXPECT_EQ(task->exit_code(), 0);
  EXPECT_EQ(stage->state(), StageState::Done);

  wfp.stop();
  synchronizer.stop();
  broker->close();
}

}  // namespace
}  // namespace entk
