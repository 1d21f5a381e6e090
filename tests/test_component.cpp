// Unit tests of the supervised-component runtime (src/common/component.hpp)
// and the AppManager-level Supervisor: the legal-transition table, worker
// fault propagation, drain-before-stop, fault injection, restart with
// re-attachment, and restart-budget exhaustion.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/component.hpp"
#include "src/common/error.hpp"
#include "src/core/supervisor.hpp"

namespace entk {
namespace {

/// A minimal supervised component: one "pump" worker that moves ints from
/// an inbox to an outbox. A negative value makes the worker throw (the
/// uncontrolled-crash path); the inbox survives a crash, so a restarted
/// generation resumes exactly where the dead one stopped.
class PumpComponent : public Component {
 public:
  explicit PumpComponent(ProfilerPtr profiler = std::make_shared<Profiler>())
      : Component("pump", std::move(profiler)) {}
  ~PumpComponent() override { stop(); }

  void push(int value) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inbox_.push_back(value);
    }
    cv_.notify_all();
  }

  std::vector<int> drained() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return outbox_;
  }

  int reattaches() const { return reattaches_.load(); }
  int clean_stops() const { return clean_stops_.load(); }

  std::atomic<bool> throw_on_start{false};

 protected:
  void on_start() override {
    if (throw_on_start.load()) throw std::runtime_error("broken on_start");
    add_worker("pump", [this] { pump(); });
  }
  void on_stop_requested() override {
    // pump() waits without a timeout: passing through its mutex orders this
    // wake-up after any predicate check it is in the middle of, so the
    // notify cannot be lost.
    { std::lock_guard<std::mutex> lock(mutex_); }
    cv_.notify_all();
  }
  void on_stopped() override { clean_stops_.fetch_add(1); }
  void on_reattach() override { reattaches_.fetch_add(1); }

 private:
  void pump() {
    while (true) {
      beat();
      int value;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock,
                 [this] { return stop_requested() || !inbox_.empty(); });
        if (inbox_.empty()) return;  // stop requested and fully drained
        value = inbox_.front();
        inbox_.pop_front();
      }
      if (value < 0) throw std::runtime_error("poison value");
      std::lock_guard<std::mutex> lock(mutex_);
      outbox_.push_back(value);
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<int> inbox_;
  std::vector<int> outbox_;
  std::atomic<int> reattaches_{0};
  std::atomic<int> clean_stops_{0};
};

bool wait_until(const std::function<bool()>& pred, double timeout_s = 2.0) {
  const double deadline = wall_now_s() + timeout_s;
  while (wall_now_s() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ComponentState, TransitionTableIsExactlyTheDocumentedOne) {
  using S = ComponentState;
  const std::vector<S> all = {S::New,      S::Starting, S::Running,
                              S::Draining, S::Stopped,  S::Failed};
  const std::vector<std::pair<S, S>> legal = {
      {S::New, S::Starting},      {S::Starting, S::Running},
      {S::Starting, S::Failed},   {S::Running, S::Draining},
      {S::Running, S::Failed},    {S::Draining, S::Stopped},
      {S::Draining, S::Failed},   {S::Stopped, S::Starting},
      {S::Failed, S::Starting}};
  for (S from : all) {
    for (S to : all) {
      const bool expected =
          std::find(legal.begin(), legal.end(), std::make_pair(from, to)) !=
          legal.end();
      EXPECT_EQ(is_valid_transition(from, to), expected)
          << to_string(from) << " -> " << to_string(to);
    }
  }
}

TEST(Component, StartStopLifecycle) {
  PumpComponent c;
  EXPECT_EQ(c.state(), ComponentState::New);
  EXPECT_EQ(c.generation(), 0);
  EXPECT_LT(c.seconds_since_beat(), 0.0);

  c.start();
  EXPECT_EQ(c.state(), ComponentState::Running);
  EXPECT_EQ(c.generation(), 1);
  EXPECT_EQ(c.worker_count(), 1u);
  c.push(7);
  ASSERT_TRUE(wait_until([&] { return c.drained().size() == 1; }));
  EXPECT_GE(c.seconds_since_beat(), 0.0);

  c.stop();
  EXPECT_EQ(c.state(), ComponentState::Stopped);
  EXPECT_EQ(c.clean_stops(), 1);
}

TEST(Component, StopIsIdempotentAndStopBeforeStartIsNoop) {
  PumpComponent c;
  c.stop();  // New -> no-op
  EXPECT_EQ(c.state(), ComponentState::New);
  c.start();
  c.stop();
  c.stop();
  c.stop();
  EXPECT_EQ(c.state(), ComponentState::Stopped);
  EXPECT_EQ(c.clean_stops(), 1);  // on_stopped fires once per actual stop
}

TEST(Component, StartWhileRunningThrowsStateError) {
  PumpComponent c;
  c.start();
  EXPECT_THROW(c.start(), StateError);
  EXPECT_EQ(c.state(), ComponentState::Running);
  c.stop();
}

TEST(Component, DrainBeforeStopDeliversEverything) {
  PumpComponent c;
  c.start();
  for (int i = 0; i < 200; ++i) c.push(i);
  c.stop();  // worker must drain the inbox before honoring stop
  const std::vector<int> out = c.drained();
  ASSERT_EQ(out.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(out[i], i);
}

TEST(Component, RestartAfterCleanStopStartsNewGeneration) {
  PumpComponent c;
  c.start();
  c.push(1);
  c.stop();
  c.start();  // Stopped -> Starting is legal
  EXPECT_EQ(c.generation(), 2);
  c.push(2);
  ASSERT_TRUE(wait_until([&] { return c.drained().size() == 2; }));
  c.stop();
  EXPECT_EQ(c.reattaches(), 0);  // clean restarts do not re-attach
}

TEST(Component, WorkerExceptionMarksComponentFailed) {
  PumpComponent c;
  c.start();
  c.push(-1);
  ASSERT_TRUE(wait_until([&] { return c.state() == ComponentState::Failed; }));
  EXPECT_NE(c.fault_reason().find("poison value"), std::string::npos);
  EXPECT_NE(c.fault_reason().find("pump"), std::string::npos);
  c.stop();  // joining a Failed component keeps it Failed
  EXPECT_EQ(c.state(), ComponentState::Failed);
  EXPECT_EQ(c.clean_stops(), 0);
}

TEST(Component, FaultListenerFiresOnWorkerDeath) {
  PumpComponent c;
  std::atomic<bool> heard{false};
  std::string reason;
  std::mutex reason_mutex;
  c.set_fault_listener([&](Component& failed, const std::string& why) {
    std::lock_guard<std::mutex> lock(reason_mutex);
    reason = failed.name() + "|" + why;
    heard = true;
  });
  c.start();
  c.push(-1);
  ASSERT_TRUE(wait_until([&] { return heard.load(); }));
  std::lock_guard<std::mutex> lock(reason_mutex);
  EXPECT_NE(reason.find("pump|"), std::string::npos);
  EXPECT_NE(reason.find("poison value"), std::string::npos);
}

TEST(Component, InjectFaultTriggersOnNextBeat) {
  PumpComponent c;
  c.start();
  c.inject_fault("chaos monkey");
  c.push(1);  // wake the worker so its loop beats again
  ASSERT_TRUE(wait_until([&] { return c.state() == ComponentState::Failed; }));
  EXPECT_NE(c.fault_reason().find("chaos monkey"), std::string::npos);
}

TEST(Component, RestartFromFailedReattaches) {
  PumpComponent c;
  c.start();
  c.push(1);
  ASSERT_TRUE(wait_until([&] { return c.drained().size() == 1; }));
  c.push(-1);
  ASSERT_TRUE(wait_until([&] { return c.state() == ComponentState::Failed; }));
  c.push(2);   // arrives while the component is down
  c.start();   // Failed -> Starting: recovery path
  EXPECT_EQ(c.reattaches(), 1);
  EXPECT_EQ(c.generation(), 2);
  // The queued value survived the crash and the new generation drains it.
  ASSERT_TRUE(wait_until([&] { return c.drained().size() == 2; }));
  EXPECT_EQ(c.drained()[1], 2);
  c.stop();
  EXPECT_EQ(c.state(), ComponentState::Stopped);
}

TEST(Component, ExternalFailStopsWorkersAndRecordsReason) {
  PumpComponent c;
  c.start();
  c.fail("killed by test");
  EXPECT_EQ(c.state(), ComponentState::Failed);
  EXPECT_EQ(c.fault_reason(), "killed by test");
  c.fail("second kill is a no-op");
  EXPECT_EQ(c.fault_reason(), "killed by test");
}

TEST(Component, ThrowingOnStartLeavesComponentFailed) {
  PumpComponent c;
  c.throw_on_start = true;
  EXPECT_THROW(c.start(), std::runtime_error);
  EXPECT_EQ(c.state(), ComponentState::Failed);
  EXPECT_EQ(c.generation(), 0);
  c.throw_on_start = false;
  c.start();  // recoverable: Failed -> Starting
  EXPECT_EQ(c.state(), ComponentState::Running);
  c.stop();
}

TEST(Supervisor, RestartsFailedComponentAndWorkResumes) {
  SupervisionConfig cfg;
  cfg.heartbeat_interval_s = 0.005;
  cfg.component_restart_limit = 2;
  auto profiler = std::make_shared<Profiler>();
  PumpComponent c(profiler);
  Supervisor sup(cfg, profiler);
  sup.supervise(&c);
  c.start();
  sup.start();

  c.push(1);
  c.push(-1);  // crash the worker mid-stream
  ASSERT_TRUE(wait_until([&] {
    return c.state() == ComponentState::Running && c.generation() == 2;
  }));
  EXPECT_EQ(sup.total_restarts(), 1);
  EXPECT_EQ(sup.restarts_of("pump"), 1);
  EXPECT_EQ(c.reattaches(), 1);

  c.push(2);  // the restarted generation keeps working
  ASSERT_TRUE(wait_until([&] { return c.drained().size() == 2; }));

  sup.stop();
  c.stop();
  EXPECT_EQ(c.state(), ComponentState::Stopped);
}

TEST(Supervisor, BudgetExhaustionInvokesFatalHandler) {
  SupervisionConfig cfg;
  cfg.heartbeat_interval_s = 0.005;
  cfg.component_restart_limit = 1;
  auto profiler = std::make_shared<Profiler>();
  PumpComponent c(profiler);
  Supervisor sup(cfg, profiler);
  sup.supervise(&c);
  std::atomic<bool> fatal{false};
  std::string fatal_name;
  std::mutex fatal_mutex;
  sup.set_fatal_handler([&](const std::string& name, const std::string&) {
    std::lock_guard<std::mutex> lock(fatal_mutex);
    fatal_name = name;
    fatal = true;
  });
  c.start();
  sup.start();

  c.push(-1);  // first crash: restarted (budget 1)
  ASSERT_TRUE(wait_until([&] { return c.generation() == 2; }));
  c.push(-1);  // second crash: budget exhausted
  ASSERT_TRUE(wait_until([&] { return fatal.load(); }));
  {
    std::lock_guard<std::mutex> lock(fatal_mutex);
    EXPECT_EQ(fatal_name, "pump");
  }
  EXPECT_EQ(sup.total_restarts(), 1);
  EXPECT_EQ(c.state(), ComponentState::Failed);  // left down for post-mortem

  sup.stop();
}

TEST(Supervisor, StopIsIdempotent) {
  SupervisionConfig cfg;
  cfg.heartbeat_interval_s = 0.005;
  auto profiler = std::make_shared<Profiler>();
  Supervisor sup(cfg, profiler);
  sup.start();
  sup.stop();
  sup.stop();
  EXPECT_EQ(sup.state(), ComponentState::Stopped);
}

}  // namespace
}  // namespace entk
