// WFProcessor (paper Fig 2): the workflow-management component.
//
// Enqueue walks the application's pipelines, tags schedulable tasks and
// pushes them to the Pending queue (message 1). Dequeue pulls completed
// tasks from the Done queue (message 5) and tags them done, failed or
// canceled based on the RTS return code — driving stage completion,
// pipeline advancement, post-exec hooks (branching/adaptivity) and
// task-level fault tolerance (resubmission of failed tasks up to a retry
// budget, without restarting completed work).
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/core/sync.hpp"
#include "src/mq/broker.hpp"

namespace entk {

struct WfConfig {
  int default_task_retry_limit = 0;
  double poll_timeout_s = 0.002;  ///< wall s queue polls

  /// Tasks per dispatch batch: Enqueue publishes `pending` messages
  /// ({"uids": [...]}) of up to this many tasks with vectored state syncs
  /// (one confirmed round-trip per batch), and Dequeue drains up to this
  /// many Done messages at once. 1 is a batch of one on the same path.
  /// Every task passes through every state and profiler event at any size
  /// — only the message count changes.
  std::size_t batch_size = 1;

  /// Tasks already DONE in a previous attempt (recovered from the state
  /// journal): they are tagged resolved without re-execution, so resumed
  /// applications only run the work that is still missing (paper §II-A:
  /// "executed on multiple attempts, without restarting completed tasks").
  std::set<std::string> recovered_done;

  /// Remote-worker mode: publish self-contained units ({"units": [...]})
  /// on the Pending queue instead of registry uids, so registry-less
  /// entk_worker daemons can translate and execute them. Tasks must not
  /// carry callables (they do not survive serialization; AppManager
  /// validates). State flow, profiler events and bookkeeping are
  /// unchanged — only the pending wire form differs.
  bool inline_units = false;

  /// Non-empty: publish a completion-event stream ({"event": "task" |
  /// "stage" | "pipeline", ...}) to this queue as results resolve — the
  /// single source of truth the ensemble::Controller consumes. Every event
  /// is emitted AFTER the state transition it describes committed, so a
  /// rule acting on an event never races the transition.
  std::string events_queue;
};

/// A supervised Component with two workers ("enqueue", "dequeue"). All
/// workflow state lives in the registry, the broker queues and the stage
/// books, so a crashed WFProcessor can be restarted by the supervisor:
/// on_reattach() requeues unacked Done-queue deliveries and the enqueue
/// rescan picks up whatever was not yet scheduled.
class WFProcessor : public Component {
 public:
  WFProcessor(WfConfig config, mq::BrokerHandlePtr broker, ObjectRegistry* registry,
              std::string pending_queue, std::string done_queue,
              std::string states_queue, ProfilerPtr profiler);
  ~WFProcessor() override;

  /// Block until every pipeline reached a final state (or abort()).
  void wait_completion();

  /// Abort: mark all live pipelines Failed and wake waiters (used when the
  /// RTS is irrecoverably gone).
  void abort(const std::string& reason);

  /// User-requested cancellation: every live task, stage and pipeline is
  /// moved to Canceled (clean termination, paper §II-A); in-flight units
  /// finish in the RTS but their results are ignored.
  void cancel();

  /// Targeted cancellation (ensemble `cancel_group` action): move the given
  /// live tasks to Canceled, counting them as resolved in their stage books
  /// so stages still complete. Thread-safe — the Synchronizer arbitrates
  /// races with in-flight results (only the winner of the CANCELED
  /// transition updates the book, so every task resolves exactly once).
  /// Returns how many tasks this call actually canceled.
  std::size_t cancel_tasks(const std::vector<std::string>& uids);

  /// Wake the enqueue rescan (a controller appended stages or released a
  /// held-open pipeline).
  void notify_work();

  /// Tasks resolved Done / finally Failed; total resubmission attempts;
  /// tasks skipped because a previous attempt already completed them.
  std::size_t tasks_done() const { return tasks_done_.load(); }
  std::size_t tasks_failed() const { return tasks_failed_.load(); }
  std::size_t resubmissions() const { return resubmissions_.load(); }
  std::size_t tasks_recovered() const { return tasks_recovered_.load(); }
  std::size_t tasks_canceled() const { return tasks_canceled_.load(); }

  BusyAccumulator& enqueue_busy() { return enqueue_busy_; }
  BusyAccumulator& dequeue_busy() { return dequeue_busy_; }

 protected:
  void on_start() override;
  void on_stop_requested() override;
  void on_stopped() override;
  void on_reattach() override;

 private:
  struct StageBook {
    std::size_t resolved = 0;
    std::size_t failed = 0;
    /// schedule_stage committed SCHEDULED. A stage finishes once it is
    /// dispatched and fully resolved, on whichever thread sees that last:
    /// results can come back before the stage's own SCHEDULED commit.
    bool dispatched = false;
    bool finished = false;  ///< finish_stage dispatched (one-shot guard)
    /// True exactly once: for the caller that sees the stage dispatched
    /// and all `task_count` tasks resolved first. Call under book_mutex_.
    bool claim_finish(std::size_t task_count) {
      if (finished || !dispatched || resolved < task_count) return false;
      finished = true;
      return true;
    }
    /// A live finish_stage call owns the stage: the rescan must not take
    /// its DONE state for a finish a dead generation left behind.
    bool finishing = false;
  };

  void enqueue_loop();
  void dequeue_loop();
  void schedule_stage(const PipelinePtr& pipeline, const StagePtr& stage,
                      SyncClient& sync);
  /// One pending message + two vectored syncs per chunk of `batch_size`
  /// tasks of a stage.
  void enqueue_task_batch(const std::vector<TaskPtr>& tasks, SyncClient& sync);
  /// DONE results of a drained batch share vectored Executed/Done syncs;
  /// failures go to resolve_task. The pointers alias completion records
  /// inside shared message payloads the caller keeps alive (zero-copy
  /// dequeue).
  void resolve_results(const std::vector<const json::Value*>& results,
                       SyncClient& sync);
  /// Failure path of resolve_results: one FAILED result, retried up to the
  /// task's retry budget or resolved as finally failed.
  void resolve_task(const json::Value& result, SyncClient& sync);
  void finish_stage(const PipelinePtr& pipeline, const StagePtr& stage,
                    bool stage_failed, SyncClient& sync);
  void set_finishing(const std::string& stage_uid, bool finishing);
  bool is_finishing(const std::string& stage_uid);
  /// Mark an exhausted, un-held pipeline DONE (one caller wins the
  /// begin_completion guard; everyone else is a no-op).
  void complete_pipeline(const PipelinePtr& pipeline, SyncClient& sync);
  /// Register stages a hook/controller appended to the pipeline but that
  /// the registry has not seen yet.
  void register_appended_stages(const PipelinePtr& pipeline);
  bool all_pipelines_final() const;

  // Completion-event stream (no-ops when events_queue is empty).
  void emit_event(json::Value event);
  void emit_task_event(const TaskPtr& task, const char* outcome);

  const WfConfig config_;
  mq::BrokerHandlePtr broker_;
  ObjectRegistry* registry_;
  const std::string pending_queue_;
  const std::string done_queue_;
  const std::string states_queue_;

  std::atomic<bool> canceling_{false};

  // Enqueue wake-up: new work exists (initial stages, advanced stages,
  // retries).
  std::mutex work_mutex_;
  std::condition_variable work_cv_;
  std::deque<std::string> retry_uids_;
  bool work_available_ = true;

  // Completion signaling.
  mutable std::mutex done_mutex_;
  std::condition_variable done_cv_;
  bool aborted_ = false;

  std::mutex book_mutex_;  // stage books: touched by Enqueue (recovery)
                           // and Dequeue (completions)
  std::map<std::string, StageBook> stage_books_;

  std::atomic<std::size_t> tasks_done_{0};
  std::atomic<std::size_t> tasks_recovered_{0};
  std::atomic<std::size_t> tasks_failed_{0};
  std::atomic<std::size_t> resubmissions_{0};
  std::atomic<std::size_t> tasks_canceled_{0};

  BusyAccumulator enqueue_busy_;
  BusyAccumulator dequeue_busy_;

  // Pre-resolved metric handles ("wfp.*"), cached in on_start(); all null
  // when metrics are off.
  obs::Counter* enqueued_metric_ = nullptr;
  obs::Counter* done_metric_ = nullptr;
  obs::Counter* failed_metric_ = nullptr;
  obs::Counter* resubmit_metric_ = nullptr;
  obs::Counter* duplicate_metric_ = nullptr;
};

}  // namespace entk
