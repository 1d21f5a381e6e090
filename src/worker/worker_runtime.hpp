// WorkerRuntime: the reusable Rmgr/Emgr/RtsCallback execution stack.
//
// It is the paper's ExecManager (Fig 2), and the same machinery runs in
// two deployments:
//   - embedded: AppManager constructs it as the "exec_manager" component
//     with a resolver backed by the live ObjectRegistry (task callables
//     survive translation) — the single-process layout;
//   - remote: the entk_worker daemon constructs it against a RemoteBroker,
//     resolving units from the `{"units": [...]}` wire form the AppManager
//     publishes in --workers mode, so N worker processes drain one
//     ensemble's Pending queue concurrently.
//
// Rmgr acquires resources through the RTS (pilot submission); Emgr pulls
// tasks from the Pending queue (message 2), translates them into
// RTS-specific units and submits them for execution (message 3); the RTS
// Callback subcomponent pushes completed units to the Done queue
// (message 4); Heartbeat monitors RTS health and — because the RTS is a
// black box — handles full RTS failure by tearing it down, starting a new
// instance with fresh pilot resources, and resubmitting only the units
// that were in flight at the time of failure (paper §II-B-4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/busy.hpp"
#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/mq/broker.hpp"
#include "src/rts/rts.hpp"
#include "src/worker/sync_client.hpp"

namespace entk::worker {

/// Maps a pending-queue uid to a submittable unit. The embedded deployment
/// resolves through the ObjectRegistry (callables survive); the daemon has
/// no registry and returns nullopt for every uid: it serves only
/// {"units"} messages.
using UnitResolver =
    std::function<std::optional<rts::TaskUnit>(const std::string& uid)>;

struct WorkerRuntimeConfig {
  /// RTS heartbeat interval and restart budget (shared knob set with the
  /// AppManager-level component supervisor).
  SupervisionConfig supervision;
  double poll_timeout_s = 0.002;
  std::size_t submit_batch = 64;     ///< max units per RTS submission

  /// Completion coalescing: publish results as bulk Done messages
  /// ({"results": [...]}) instead of one message per unit. There is no
  /// timer. The emgr submits each Pending message's units on their own,
  /// and the ones the RTS completes inside that submit() leave as one
  /// message as soon as it returns; completions from RTS threads wake a
  /// flusher that publishes whatever accumulated while it was busy, so
  /// batches grow with load and an idle system adds no delay. Ignored
  /// with ack_on_completion, which publishes each result before releasing
  /// its delivery. false = one {"results": [r]} message per unit.
  bool coalesce_completions = false;

  /// Sample ready/unacked depth of every broker queue from the heartbeat
  /// thread into the profiler ("queue_ready_depth"/"queue_unacked_depth"
  /// events, depth in the numeric field), so throughput runs can attribute
  /// stalls to a specific queue.
  bool sample_queue_depths = true;

  /// Private sync-ack queue. Must be unique per runtime instance when
  /// several workers share one broker (the daemon derives it from the
  /// worker id); the embedded runtime keeps the historical name.
  std::string ack_queue = "q.ack.emgr";

  /// At-least-once delivery: hold the pending-queue delivery unacked until
  /// every unit it carried completed, so a worker killed mid-execution
  /// leaves its deliveries on the broker's per-connection unacked ledger
  /// and the disconnect-requeue machinery hands them to a surviving
  /// worker. Off (seed behaviour) = ack right after parsing.
  bool ack_on_completion = false;

  /// Bounded prefetch: cap the units held by this runtime (fetched but not
  /// yet completed) so one worker's batch gets cannot starve its siblings
  /// under skew — the surplus stays on the shared queue for whichever
  /// worker drains first. 0 = unlimited (embedded single-worker mode).
  /// Effective only with ack_on_completion (the ledger is the counter).
  std::size_t max_in_flight = 0;

  /// Non-empty = remote deployment: labels sync transitions, profiler
  /// events and the per-worker metrics family (worker.<id>.tasks_done,
  /// worker.<id>.in_flight).
  std::string worker_id;
};

/// A supervised Component with "emgr", "heartbeat" and (with completion
/// coalescing on) "flush" workers. The RTS handle lives outside the
/// worker lifecycle, so a crashed-and-restarted runtime re-attaches to
/// the same RTS instance and the Pending queue without losing units.
class WorkerRuntime : public Component {
 public:
  WorkerRuntime(std::string component_name, WorkerRuntimeConfig config,
                mq::BrokerHandlePtr broker, UnitResolver resolver,
                std::string pending_queue, std::string done_queue,
                std::string states_queue, rts::RtsFactory rts_factory,
                ProfilerPtr profiler);
  ~WorkerRuntime() override;

  /// Rmgr: create the RTS and acquire resources (blocking).
  void acquire_resources();

  /// Stop the workers (Component::stop) and terminate the RTS gracefully.
  /// Idempotent: the second call is a no-op returning 0. Returns the wall
  /// seconds spent inside Rts::terminate (so AppManager can report EnTK
  /// and RTS tear-down separately). Hides Component::stop(), which stops
  /// the workers but leaves the RTS running (the supervisor's view).
  double stop();

  /// Fault injection for tests/examples: hard-kill the current RTS.
  void inject_rts_failure();

  /// Elastic-pilot request from the ensemble Controller: forward to the
  /// live RTS. Returns false when no RTS is up or it cannot resize.
  bool request_resize(const rts::ResizeRequest& request);

  /// Set the handler invoked when the RTS is lost and the restart budget
  /// is exhausted.
  void set_fatal_handler(std::function<void(const std::string&)> handler);

  int rts_restarts() const { return restarts_.load(); }
  rts::RtsStats rts_stats() const;

  BusyAccumulator& emgr_busy() { return emgr_busy_; }

  /// Units completed by this runtime (counts every RTS callback).
  std::size_t tasks_done() const { return tasks_done_.load(); }

  /// Units fetched but not yet completed (ack_on_completion mode only;
  /// 0 otherwise).
  std::size_t in_flight() const;

 protected:
  void on_start() override;
  void on_stop_requested() override;
  void on_reattach() override;

 private:
  void emgr_loop();
  void heartbeat_loop();
  void attach_callback();
  void restart_rts();
  void sample_queue_depths();
  /// Cache "rts.*" / "worker.*" metric handles once a registry is attached
  /// (idempotent).
  void resolve_metrics();
  /// coalesce_completions in effect (never with ack_on_completion).
  bool coalescing() const {
    return config_.coalesce_completions && !config_.ack_on_completion;
  }
  /// Submit a batch to the live RTS; with coalescing, the units it
  /// completes inline leave as one Done message when it returns.
  void submit_to_rts(std::vector<rts::TaskUnit> batch);
  void flush_loop();
  /// Publish completion results as one {"results": [...]} Done message.
  void flush_completions(std::vector<json::Value> buffered);

  // --- at-least-once delivery ledger (ack_on_completion mode) -----------
  /// Register a fetched delivery holding `uids`; empty deliveries are
  /// acked immediately.
  void ledger_track(std::uint64_t tag, const std::vector<std::string>& uids);
  /// A unit finished (or was superseded): release its claim; acks the
  /// delivery once its last unit completes.
  void ledger_complete(const std::string& uid);
  /// Submission failed before the RTS owned the units: push the whole
  /// batch back to the broker for another worker.
  void ledger_nack(const std::vector<std::uint64_t>& tags);

  const WorkerRuntimeConfig config_;
  mq::BrokerHandlePtr broker_;
  UnitResolver resolver_;
  const std::string pending_queue_;
  const std::string done_queue_;
  const std::string states_queue_;
  rts::RtsFactory rts_factory_;
  const std::string sync_component_;

  mutable std::mutex rts_mutex_;
  rts::RtsPtr rts_;

  std::function<void(const std::string&)> fatal_handler_;

  std::atomic<int> restarts_{0};
  std::atomic<bool> rts_terminated_{false};
  std::atomic<std::size_t> tasks_done_{0};
  BusyAccumulator emgr_busy_;

  mutable std::mutex ledger_mutex_;
  std::map<std::uint64_t, std::size_t> ledger_remaining_;  ///< tag -> open units
  std::map<std::string, std::uint64_t> ledger_uid_tag_;    ///< uid -> tag
  /// Units in flight, kept for RTS-restart resubmission when no resolver
  /// can reconstruct them (the daemon's inline-units path).
  std::map<std::string, rts::TaskUnit> unit_cache_;

  // Pre-resolved metric handles ("rts.*"); all null when metrics are off.
  obs::Histogram* submit_us_metric_ = nullptr;
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* worker_done_metric_ = nullptr;  ///< worker.<id>.tasks_done
  obs::Gauge* worker_flight_metric_ = nullptr;  ///< worker.<id>.in_flight

  // Completion coalescing (used only when coalescing()).
  /// Results the RTS completed inside the emgr's submit(); touched only by
  /// the emgr thread.
  std::vector<json::Value> inline_results_;
  std::mutex flush_mutex_;
  std::condition_variable flush_cv_;
  /// Results from RTS threads, waiting for the flusher.
  std::vector<json::Value> completion_buffer_;
  bool flusher_running_ = false;
};

}  // namespace entk::worker
