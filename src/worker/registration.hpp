// Worker registration + liveness over the broker (application level).
//
// Two cooperating halves:
//   - WorkerAnnouncer (worker side): publishes register / heartbeat /
//     deregister events for one worker on the `q.workers.ctrl` control
//     queue, carrying the worker's core count and progress counters.
//   - WorkerDirectory (AppManager side): a supervised Component consuming
//     the control queue into a liveness view — which workers exist, when
//     each was last heard from, how much each has done — exported as
//     `workers.live` / `workers.registered` gauges.
//
// This is the *observability* half of liveness. The *correctness* half is
// transport level: the broker server tracks a per-connection unacked
// ledger and requeues it when a worker's TCP connection dies or its
// protocol heartbeats stop (BrokerServerConfig::worker_ttl_s), so a dead
// worker's in-flight tasks re-run elsewhere regardless of whether it ever
// published a deregister event.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/mq/broker_handle.hpp"

namespace entk::worker {

inline constexpr char kWorkersControlQueue[] = "q.workers.ctrl";

struct WorkerInfo {
  std::string worker_id;
  int cores = 0;
  std::size_t tasks_done = 0;
  std::size_t in_flight = 0;
  double last_seen_s = 0.0;  ///< wall seconds of the last event
  bool deregistered = false;
};

/// Worker-side publisher of control events. Not thread-safe; the daemon's
/// main loop owns it.
class WorkerAnnouncer {
 public:
  WorkerAnnouncer(mq::BrokerHandlePtr broker, std::string worker_id,
                  int cores);

  void announce_register();
  void heartbeat(std::size_t tasks_done, std::size_t in_flight);
  void announce_deregister(std::size_t tasks_done);

 private:
  void publish(const char* event, std::size_t tasks_done,
               std::size_t in_flight);

  mq::BrokerHandlePtr broker_;
  const std::string worker_id_;
  const int cores_;
};

/// AppManager-side directory of announced workers. A supervised Component
/// with one "directory" worker; all view state rebuilds from the control
/// queue, so a restart loses nothing but unexpired heartbeats.
class WorkerDirectory : public Component {
 public:
  /// Workers silent for longer than `ttl_s` are counted dead (gauges
  /// only; the broker's transport-level TTL owns requeue correctness).
  WorkerDirectory(mq::BrokerHandlePtr broker, double ttl_s,
                  ProfilerPtr profiler);
  ~WorkerDirectory() override;

  std::vector<WorkerInfo> workers() const;
  /// Workers registered, not deregistered, and heard from within ttl.
  std::size_t live_workers() const;
  std::size_t registered_workers() const;

 protected:
  void on_start() override;
  void on_reattach() override;

 private:
  void loop();
  void apply(const json::Value& msg);
  void refresh_gauges();

  mq::BrokerHandlePtr broker_;
  const double ttl_s_;

  mutable std::mutex mutex_;
  std::map<std::string, WorkerInfo> workers_;
  std::size_t registered_total_ = 0;
};

}  // namespace entk::worker
