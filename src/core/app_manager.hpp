// AppManager (paper Fig 2): the master component of EnTK.
//
// Holds the application description and all global state; creates the
// communication infrastructure (broker queues), spawns the Synchronizer,
// instantiates WFProcessor and ExecManager (an embedded
// worker::WorkerRuntime), and orchestrates the run:
//   users describe an application as pipelines of stages of tasks, hand it
//   to AppManager together with a resource description, and call run().
// AppManager is the single stateful component: every state change flows
// through its Synchronizer into the transactional StateStore.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/profiler.hpp"
#include "src/core/overheads.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/resource.hpp"
#include "src/core/state_store.hpp"
#include "src/core/supervisor.hpp"
#include "src/core/sync.hpp"
#include "src/core/wfprocessor.hpp"
#include "src/mq/broker.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/rts/rts.hpp"
#include "src/worker/registration.hpp"
#include "src/worker/worker_runtime.hpp"

namespace entk {

/// Wiring handed to an adaptive-extension factory (the ensemble
/// Controller): everything a rule engine needs to observe and steer a run.
/// Defined here — not in src/ensemble — so core never depends on the
/// ensemble library; the dependency points the other way.
struct AdaptiveWiring {
  mq::BrokerHandlePtr broker;
  std::string events_queue;  ///< WFProcessor completion-event stream
  ObjectRegistry* registry = nullptr;
  WFProcessor* wfprocessor = nullptr;
  ClockPtr clock;
  ProfilerPtr profiler;
  obs::MetricsPtr metrics;  ///< null when metrics are off
  /// Elastic-pilot hook; always callable, returns false when no local RTS
  /// exists (remote-workers mode) or the RTS cannot resize.
  std::function<bool(const rts::ResizeRequest&)> resize;
};

/// Invoked during run() setup once the core components exist. The returned
/// Component is supervised, started with the core components and stopped
/// at teardown. ensemble::Controller::attach() installs one of these.
using AdaptiveFactory =
    std::function<std::shared_ptr<Component>(const AdaptiveWiring&)>;

struct AppManagerConfig {
  ResourceDescription resource;

  /// Host-emulation model; factor < 0 -> use the CI catalog's factor.
  HostModel host{.factor = -1.0};

  int task_retry_limit = 0;   ///< default resubmission budget per task

  /// One knob set for all supervision: the component supervisor's probe
  /// interval and restart budget, and the ExecManager's RTS heartbeat and
  /// restart budget (previously two independently-set fields).
  SupervisionConfig supervision;

  /// Wall seconds per virtual second for the simulated CI (1e-3 runs
  /// simulated workloads 1000x faster than real time).
  double clock_scale = 1e-3;

  /// Directory for the broker journal and the transactional state journal
  /// ("" = in-memory only).
  std::string journal_dir;

  /// Group-commit policy of the broker journal AND the state journal
  /// (flush batch size, commit window, optional per-append sync). Ignored
  /// when journal_dir is "".
  mq::JournalConfig journal;

  /// Shards of the in-process broker's queue namespace: queues hash to
  /// independent lock + journal domains, so concurrent publishers and
  /// consumers of different queues never contend. 0 = one shard per
  /// hardware thread (capped — see mq::Broker::default_shards); 1 keeps
  /// the historical single-shard broker. Ignored when broker_endpoint is
  /// set (the daemon owns its own --shards knob).
  std::size_t broker_shards = 1;

  /// Endpoint ("host:port") of an entk_broker daemon. Empty (default) =
  /// in-process broker, which keeps the zero-copy fast path. When set,
  /// every component talks to the daemon through a net::RemoteBroker over
  /// the framed TCP protocol; broker durability is then the daemon's
  /// responsibility (its --journal-dir) and journal_dir here governs only
  /// the local state journal.
  std::string broker_endpoint;

  /// Tenant namespace on the broker daemon (requires broker_endpoint).
  /// Every queue this application declares lives inside the tenant, so
  /// many ensembles share one daemon without their identically-named
  /// queues colliding, and the daemon's per-tenant quotas/fair scheduling
  /// apply. Empty (default) = the daemon's default tenant — exact
  /// single-tenant behavior.
  std::string tenant;

  /// Path to the journal of a previous (crashed) durable broker: replayed
  /// into the in-process broker before the run (Broker::recover), then the
  /// recovered queue backlog is purged — in an AppManager-driven run, the
  /// WFProcessor is the scheduling authority and re-publishes everything
  /// the state journal says is still outstanding; replayed messages would
  /// only duplicate it (recovered-DONE tasks must not reappear at all).
  /// The broker-journal replay is what carries durable *broker* state
  /// (queue set + durability) across the crash; pair it with
  /// resume_journal to also skip completed tasks. Requires an empty
  /// broker_endpoint (a daemon recovers its own journal via --recover).
  std::string recover_broker_journal;

  /// Path to the state journal of a previous attempt of the SAME
  /// application description (matching uids). Tasks whose last committed
  /// state is DONE are recovered and not re-executed: the paper's restart
  /// semantics ("reacquire upon restarting information about the state of
  /// the execution up to the latest successful transaction", §II-B-4).
  std::string resume_journal;

  /// Override the runtime system (default: PilotRts on `resource`). The
  /// factory is invoked again after an RTS failure.
  rts::RtsFactory rts_factory;

  /// Tasks per dispatch batch through the whole pipeline: Enqueue publishes
  /// bulk pending messages, state syncs are vectored (one confirmed
  /// round-trip per batch), Dequeue and Emgr drain in batches, and the RTS
  /// callback coalesces completions into bulk Done messages. 1 reproduces
  /// the seed's strictly per-task message flow; per-task states, profiler
  /// events and recovery semantics are identical at any setting.
  std::size_t task_batch_size = 64;

  /// Observability: live metrics registry (broker/component/RTS counters,
  /// latency histograms) and post-run exports — Chrome trace_event JSON
  /// (obs.trace_out) and metrics JSONL (obs.metrics_out). All off by
  /// default; the hot paths then cost a single null check.
  obs::ObsConfig obs;

  /// Distributed execution plane: this process runs no ExecManager.
  /// Instead the WFProcessor publishes self-contained units
  /// ({"units": [...]}) on the Pending queue of the broker daemon at
  /// broker_endpoint (required), entk_worker daemons drain and execute
  /// them, and a WorkerDirectory consumes their registration/heartbeat
  /// events. Tasks must not carry callables (they cannot cross a process
  /// boundary); run() rejects them. Everything else — states, recovery,
  /// retries, reporting — is unchanged.
  bool remote_workers = false;

  /// Liveness TTL of the WorkerDirectory view (remote_workers mode):
  /// workers silent longer than this stop counting as live. Gauge-level
  /// only; requeue correctness is the broker daemon's worker TTL.
  double worker_ttl_s = 5.0;

  /// Adaptive-workflow extension (the ensemble Controller). When set, the
  /// WFProcessor publishes its completion-event stream to events_queue and
  /// the factory's Component joins the supervision tree for the run.
  AdaptiveFactory adaptive_factory;

  /// Queue carrying the completion-event stream. Empty = enabled only when
  /// adaptive_factory is set, under the default name "q.ensemble.events";
  /// set explicitly to tap the stream without a controller.
  std::string events_queue;
};

class AppManager {
 public:
  explicit AppManager(AppManagerConfig config);
  ~AppManager();

  AppManager(const AppManager&) = delete;
  AppManager& operator=(const AppManager&) = delete;

  /// Assign the application workflow. Must be called before run().
  void add_pipelines(std::vector<PipelinePtr> pipelines);

  /// Execute the application to completion (blocking). Throws EnTKError
  /// when the application cannot start; individual task/pipeline failures
  /// are reported through states and the overhead report instead.
  void run();

  /// Inject a hard RTS failure (fault-tolerance tests/examples).
  void inject_rts_failure();

  /// Inject a component fault: the named component ("wfprocessor",
  /// "synchronizer" or "exec_manager") throws out of its next worker-loop
  /// iteration and the supervisor takes over. Throws ValueError for an
  /// unknown component name.
  void inject_component_fault(const std::string& component);

  /// Cancel the running application from another thread: live tasks,
  /// stages and pipelines move to Canceled and run() returns after clean
  /// teardown. Results of units still executing in the RTS are discarded.
  void cancel();

  // --- introspection ------------------------------------------------------
  const std::string& uid() const { return uid_; }
  OverheadReport overheads() const { return report_; }
  ProfilerPtr profiler() { return profiler_; }
  /// Metrics registry (null unless config.obs enabled metrics).
  obs::MetricsPtr metrics() { return metrics_; }
  /// Causal trace stitched at the end of run() (empty before).
  const obs::Trace& trace() const { return trace_; }
  ClockPtr clock() { return clock_; }
  StateStore* state_store() { return store_.get(); }
  /// Journal path of this run's in-process durable broker ("" when the run
  /// was not durable or used a daemon): what a resumed run passes as
  /// recover_broker_journal.
  std::string broker_journal_path() const {
    return local_broker_ ? local_broker_->journal_path() : "";
  }
  const std::vector<PipelinePtr>& pipelines() const { return pipelines_; }
  /// Directory of announced remote workers (null unless remote_workers).
  worker::WorkerDirectory* worker_directory() {
    return worker_directory_.get();
  }
  std::size_t tasks_done() const;
  std::size_t tasks_failed() const;
  std::size_t resubmissions() const;
  std::size_t tasks_recovered() const;
  int rts_restarts() const;
  int component_restarts() const;

 private:
  rts::RtsFactory default_rts_factory();
  /// Record the first fatal failure for the report (later ones are noise).
  void note_fatal(const std::string& component, const std::string& reason);

  AppManagerConfig config_;
  std::string uid_;
  ClockPtr clock_;
  ProfilerPtr profiler_;
  obs::MetricsPtr metrics_;
  obs::Trace trace_;

  std::vector<PipelinePtr> pipelines_;

  /// What the components see: either the in-process broker or a
  /// net::RemoteBroker, behind the same BrokerHandle surface.
  mq::BrokerHandlePtr broker_;
  /// Set only on the in-process path (local recovery, metrics, tests).
  mq::BrokerPtr local_broker_;
  std::unique_ptr<StateStore> store_;
  ObjectRegistry registry_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<WFProcessor> wfprocessor_;
  /// The ExecManager ("exec_manager" component); null in remote mode.
  std::unique_ptr<worker::WorkerRuntime> exec_manager_;
  std::unique_ptr<worker::WorkerDirectory> worker_directory_;
  std::shared_ptr<Component> adaptive_;  ///< ensemble Controller (optional)
  std::unique_ptr<Supervisor> supervisor_;

  std::mutex fatal_mutex_;
  std::string fatal_component_;
  std::string fatal_reason_;

  OverheadReport report_;
  bool ran_ = false;
};

}  // namespace entk
