// Direct component tests of the ExecManager — the embedded
// worker::WorkerRuntime with a registry resolver, as AppManager builds it:
// Emgr batching and translation, RTS-callback forwarding, heartbeat-driven
// restarts with a counting factory — without a WFProcessor in the loop.
#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <thread>

#include "src/core/state_store.hpp"
#include "src/core/sync.hpp"
#include "src/rts/local_rts.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk {
namespace {

using ExecConfig = worker::WorkerRuntimeConfig;

class ExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("exec_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    clock_ = std::make_shared<ScaledClock>(1e-4);
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (emgr_) emgr_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  void start_exec(ExecConfig cfg = {}, rts::RtsFactory factory = nullptr) {
    cfg.supervision.heartbeat_interval_s = 0.005;
    if (!factory) {
      factory = [this]() -> rts::RtsPtr {
        ++rts_instances_;
        return std::make_shared<rts::LocalRts>(
            rts::LocalRtsConfig{.workers = 2}, clock_, profiler_);
      };
    }
    emgr_ = std::make_unique<worker::WorkerRuntime>(
        "exec_manager", cfg, broker_,
        [this](const std::string& uid) { return registry_.unit(uid); },
        "q.pending", "q.completed", "q.states", factory, profiler_);
    emgr_->acquire_resources();
    emgr_->start();
  }

  /// Register a task, pre-advanced to SCHEDULED (the WFProcessor's job),
  /// without publishing it — callers pick single or bulk delivery.
  TaskPtr make_task(double duration = 0.5, std::function<int()> fn = nullptr) {
    auto pipeline = std::make_shared<Pipeline>("p");
    auto stage = std::make_shared<Stage>("s");
    auto task = std::make_shared<Task>("t");
    task->duration_s = duration;
    task->function = std::move(fn);
    stage->add_task(task);
    pipeline->add_stage(stage);
    registry_.add_pipeline(pipeline);
    task->set_state(TaskState::Scheduled);
    return task;
  }

  /// Register a task and push it to the Pending queue as a batch of one.
  TaskPtr submit_task(double duration = 0.5,
                      std::function<int()> fn = nullptr) {
    TaskPtr task = make_task(duration, std::move(fn));
    publish_uids({task->uid()});
    return task;
  }

  /// Publish one {"uids": [...]} pending message.
  void publish_uids(json::Array uids) {
    json::Value msg;
    msg["uids"] = std::move(uids);
    broker_->publish("q.pending", mq::Message::json_body("q.pending", msg));
  }

  /// Wait for n {"results": [...]} messages on the Done queue.
  std::vector<json::Value> collect_messages(std::size_t n,
                                            double timeout_s = 5.0) {
    std::vector<json::Value> out;
    const double deadline = wall_now_s() + timeout_s;
    while (out.size() < n && wall_now_s() < deadline) {
      auto d = broker_->get("q.completed", 0.01);
      if (!d) continue;
      broker_->ack("q.completed", d->delivery_tag);
      out.push_back(*d->message.payload());
    }
    return out;
  }

  /// Wait for n completion records, unpacked from the Done messages.
  std::vector<json::Value> collect(std::size_t n, double timeout_s = 5.0) {
    std::vector<json::Value> out;
    const double deadline = wall_now_s() + timeout_s;
    while (out.size() < n && wall_now_s() < deadline) {
      for (const json::Value& msg : collect_messages(1, 0.01)) {
        for (const json::Value& r : msg.at("results").as_array()) {
          out.push_back(r);
        }
      }
    }
    return out;
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  ClockPtr clock_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<worker::WorkerRuntime> emgr_;
  std::atomic<int> rts_instances_{0};
};

TEST_F(ExecFixture, SubmitsAndForwardsCompletions) {
  start_exec();
  TaskPtr task = submit_task(0.5);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("uid", ""), task->uid());
  EXPECT_EQ(results[0].get_string("outcome", ""), "DONE");
  // Emgr advanced the task through Submitting to Submitted.
  EXPECT_EQ(task->state(), TaskState::Submitted);
  EXPECT_EQ(rts_instances_.load(), 1);
}

TEST_F(ExecFixture, CallableExitCodeTravelsInCompletion) {
  start_exec();
  submit_task(0.1, [] { return 9; });
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("outcome", ""), "FAILED");
  EXPECT_EQ(results[0].get_int("exit_code", 0), 9);
}

TEST_F(ExecFixture, HeartbeatRestartsDeadRtsAndResubmits) {
  ExecConfig cfg;
  cfg.supervision.rts_restart_limit = 1;
  start_exec(cfg);
  // Long-running task: 20,000 virtual s = 2 s wall at 1e-4.
  TaskPtr task = submit_task(20000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  emgr_->inject_rts_failure();
  // Restart resubmits the lost unit; LocalRts restarts it from scratch,
  // which would take another 2 s — instead verify the restart happened
  // and the unit is in flight on the new instance.
  // restarts_ increments before the factory runs: wait on the instance
  // count, which is the last step of the restart we care about.
  for (int spin = 0; spin < 1000 && rts_instances_.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(emgr_->rts_restarts(), 1);
  EXPECT_EQ(rts_instances_.load(), 2);
  for (int spin = 0; spin < 500 && emgr_->rts_stats().units_in_flight == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(emgr_->rts_stats().units_in_flight, 1u);
  (void)task;
}

TEST_F(ExecFixture, FatalHandlerFiresWhenBudgetExhausted) {
  ExecConfig cfg;
  cfg.supervision.rts_restart_limit = 0;
  start_exec(cfg);
  std::atomic<bool> fatal{false};
  emgr_->set_fatal_handler([&fatal](const std::string&) { fatal = true; });
  submit_task(20000.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  emgr_->inject_rts_failure();
  for (int spin = 0; spin < 500 && !fatal.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(fatal.load());
  EXPECT_EQ(emgr_->rts_restarts(), 0);
}

TEST_F(ExecFixture, BulkPendingMessageSubmitsAllTasks) {
  start_exec();
  // Deliver four tasks in one {"uids": [...]} message, as the batched
  // WFProcessor does.
  std::vector<TaskPtr> tasks;
  json::Array uids;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(make_task(0.2));
    uids.push_back(tasks.back()->uid());
  }
  publish_uids(std::move(uids));
  const auto results = collect(4);
  ASSERT_EQ(results.size(), 4u);
  std::set<std::string> seen;
  for (const json::Value& r : results) {
    seen.insert(r.get_string("uid", ""));
    EXPECT_EQ(r.get_string("outcome", ""), "DONE");
  }
  for (const TaskPtr& t : tasks) {
    EXPECT_EQ(seen.count(t->uid()), 1u);
    EXPECT_EQ(t->state(), TaskState::Submitted);
  }
}

/// Publish `tasks` as one bulk {"uids": [...]} pending message.
void publish_bulk(mq::Broker& broker, const std::vector<TaskPtr>& tasks) {
  json::Array uids;
  for (const TaskPtr& t : tasks) uids.push_back(t->uid());
  json::Value msg;
  msg["uids"] = std::move(uids);
  broker.publish("q.pending", mq::Message::json_body("q.pending", msg));
}

TEST_F(ExecFixture, CompletionCoalescingPublishesResultsArrays) {
  ExecConfig cfg;
  cfg.coalesce_completions = true;
  start_exec(cfg);
  std::vector<TaskPtr> tasks;
  for (int i = 0; i < 6; ++i) tasks.push_back(make_task(0.1));
  publish_bulk(*broker_, tasks);
  // Drain q.completed raw: LocalRts completes on its own threads, and the
  // flusher publishes whatever accumulated as {"results": [...]}; how the
  // six split into messages depends on timing, the format does not.
  std::multiset<std::string> seen;
  const double deadline = wall_now_s() + 5.0;
  while (seen.size() < 6 && wall_now_s() < deadline) {
    auto d = broker_->get("q.completed", 0.01);
    if (!d) continue;
    broker_->ack("q.completed", d->delivery_tag);
    const json::Value body = *d->message.payload();
    ASSERT_TRUE(body.contains("results"));
    for (const json::Value& r : body.at("results").as_array()) {
      seen.insert(r.get_string("uid", ""));
      EXPECT_EQ(r.get_string("outcome", ""), "DONE");
    }
  }
  EXPECT_EQ(seen.size(), 6u);
  for (const TaskPtr& t : tasks) EXPECT_EQ(seen.count(t->uid()), 1u);
}

/// Completes every unit inside submit(), on the caller's (emgr) thread.
class InlineRts final : public rts::Rts {
 public:
  void initialize() override {}
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }
  void submit(std::vector<rts::TaskUnit> units) override {
    ++submits;
    for (const rts::TaskUnit& unit : units) {
      rts::UnitResult result;
      result.uid = unit.uid;
      result.outcome = rts::UnitOutcome::Done;
      callback_(result);
    }
  }
  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  rts::RtsStats stats() const override { return {}; }
  std::vector<std::string> in_flight_units() const override { return {}; }

  std::atomic<int> submits{0};

 private:
  std::function<void(const rts::UnitResult&)> callback_;
};

TEST_F(ExecFixture, InlineCompletionsOfOnePendingMessageLeaveAsOneMessage) {
  // Two bulk Pending messages, both queued before the emgr's first drain:
  // each is submitted on its own and comes back as exactly one Done
  // message carrying all of its results.
  std::vector<TaskPtr> first, second;
  for (int i = 0; i < 10; ++i) first.push_back(make_task(0.1));
  for (int i = 0; i < 3; ++i) second.push_back(make_task(0.1));
  publish_bulk(*broker_, first);
  publish_bulk(*broker_, second);
  ExecConfig cfg;
  cfg.coalesce_completions = true;
  auto rts = std::make_shared<InlineRts>();
  start_exec(cfg, [rts] { return rts; });

  const auto messages = collect_messages(2);
  ASSERT_EQ(messages.size(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    const std::vector<TaskPtr>& tasks = m == 0 ? first : second;
    ASSERT_TRUE(messages[m].contains("results"));
    const json::Array& results = messages[m].at("results").as_array();
    ASSERT_EQ(results.size(), tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(results[i].get_string("uid", ""), tasks[i]->uid());
    }
  }
  EXPECT_EQ(rts->submits.load(), 2);
  EXPECT_TRUE(collect_messages(1, 0.05).empty());  // nothing else follows
}

/// Holds submitted units until the test completes them from its own
/// thread, the way an RTS thread would.
class GatedRts final : public rts::Rts {
 public:
  void initialize() override {}
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }
  void submit(std::vector<rts::TaskUnit> units) override {
    std::lock_guard<std::mutex> lock(mutex_);
    for (rts::TaskUnit& unit : units) held_.push_back(std::move(unit.uid));
  }
  std::size_t held() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_.size();
  }
  /// Complete the oldest held unit; `before`/`after` run around the
  /// completion callback.
  void complete_one(const std::function<void()>& before,
                    const std::function<void()>& after) {
    rts::UnitResult result;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      result.uid = held_.front();
      held_.erase(held_.begin());
    }
    result.outcome = rts::UnitOutcome::Done;
    before();
    callback_(result);
    after();
  }
  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  rts::RtsStats stats() const override { return {}; }
  std::vector<std::string> in_flight_units() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return held_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::string> held_;
  std::function<void(const rts::UnitResult&)> callback_;
};

TEST_F(ExecFixture, AckOnCompletionPublishesBeforeReleasingDelivery) {
  ExecConfig cfg;
  cfg.ack_on_completion = true;
  cfg.coalesce_completions = true;  // ignored: the ledger never buffers
  auto rts = std::make_shared<GatedRts>();
  start_exec(cfg, [rts] { return rts; });
  // No flusher exists to park results in: only emgr and heartbeat run.
  EXPECT_EQ(emgr_->worker_count(), 2u);

  std::vector<TaskPtr> tasks = {make_task(0.1), make_task(0.1)};
  publish_bulk(*broker_, tasks);
  for (int spin = 0; spin < 2000 && rts->held() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(rts->held(), 2u);

  auto depth = [this](const std::string& queue) {
    for (const mq::QueueDepth& d : broker_->depth_snapshot()) {
      if (d.queue == queue) return d;
    }
    return mq::QueueDepth{};
  };
  // First unit: its result is on q.completed the moment the callback
  // returns, but the delivery still carries the second unit, so it stays
  // claimed.
  rts->complete_one(
      [&] {
        EXPECT_EQ(depth("q.pending").unacked, 1u);
        EXPECT_EQ(depth("q.completed").ready, 0u);
      },
      [&] {
        EXPECT_EQ(depth("q.completed").ready, 1u);
        EXPECT_EQ(depth("q.pending").unacked, 1u);
      });
  // Last unit: published, then the delivery is released.
  rts->complete_one([] {},
                    [&] {
                      EXPECT_EQ(depth("q.completed").ready, 2u);
                      EXPECT_EQ(depth("q.pending").unacked, 0u);
                    });
  const auto messages = collect_messages(2);
  ASSERT_EQ(messages.size(), 2u);
  for (const json::Value& m : messages) {
    EXPECT_EQ(m.at("results").as_array().size(), 1u);  // one per result
  }
  EXPECT_EQ(emgr_->in_flight(), 0u);
}

TEST_F(ExecFixture, DoubleStopIsIdempotent) {
  // Regression: the pre-Component ExecManager joined heartbeat_thread_ in
  // both stop() and the destructor, so stop() followed by destruction (or a
  // second stop()) raced on a dead thread. The lifecycle state machine makes
  // stop() a no-op after the first call, and RTS termination happens once.
  start_exec();
  TaskPtr task = submit_task(0.2);
  ASSERT_EQ(collect(1).size(), 1u);
  emgr_->stop();
  EXPECT_EQ(emgr_->state(), ComponentState::Stopped);
  EXPECT_EQ(emgr_->stop(), 0.0);  // second stop: no second RTS termination
  emgr_->stop();
  EXPECT_EQ(emgr_->state(), ComponentState::Stopped);
  emgr_.reset();  // destructor after explicit stop must also be safe
  (void)task;
}

TEST_F(ExecFixture, PendingMessagesForUnknownTasksAreDropped) {
  start_exec();
  publish_uids({"task.77777x"});
  // Nothing arrives on the Done queue; a real task still works after.
  TaskPtr task = submit_task(0.2);
  const auto results = collect(1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("uid", ""), task->uid());
}

}  // namespace
}  // namespace entk
