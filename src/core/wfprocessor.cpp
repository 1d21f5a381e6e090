#include "src/core/wfprocessor.hpp"

#include <algorithm>

#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace entk {

WFProcessor::WFProcessor(WfConfig config, mq::BrokerHandlePtr broker,
                         ObjectRegistry* registry, std::string pending_queue,
                         std::string done_queue, std::string states_queue,
                         ProfilerPtr profiler)
    : Component("wfprocessor", std::move(profiler)),
      config_(config),
      broker_(std::move(broker)),
      registry_(registry),
      pending_queue_(std::move(pending_queue)),
      done_queue_(std::move(done_queue)),
      states_queue_(std::move(states_queue)) {}

WFProcessor::~WFProcessor() { stop(); }

void WFProcessor::on_start() {
  profiler_->record("wfprocessor", "wfp_start");
  if (auto* reg = metrics()) {
    enqueued_metric_ = &reg->counter("wfp.tasks_enqueued");
    done_metric_ = &reg->counter("wfp.tasks_done");
    failed_metric_ = &reg->counter("wfp.tasks_failed");
    resubmit_metric_ = &reg->counter("wfp.resubmissions");
    duplicate_metric_ = &reg->counter("wfp.duplicate_results");
  }
  {
    // Force a full pipeline rescan on (re)start: a previous generation may
    // have died after consuming its wake-up but before scheduling.
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_available_ = true;
  }
  add_worker("enqueue", [this] { enqueue_loop(); });
  add_worker("dequeue", [this] { dequeue_loop(); });
}

void WFProcessor::on_stop_requested() {
  work_cv_.notify_all();
  done_cv_.notify_all();
}

void WFProcessor::on_stopped() { profiler_->record("wfprocessor", "wfp_stop"); }

void WFProcessor::on_reattach() {
  // Deliveries the dead workers held unacked (Done-queue results, sync
  // acks) go back to their queues so the new generation resolves them.
  for (const std::string& queue :
       {done_queue_, std::string("q.ack.wfp.enq"), std::string("q.ack.wfp.deq")}) {
    if (broker_->has_queue(queue)) broker_->requeue_unacked(queue);
  }
}

bool WFProcessor::all_pipelines_final() const {
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (!is_final(p->state())) return false;
  }
  return true;
}

void WFProcessor::wait_completion() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] { return aborted_ || all_pipelines_final(); });
}

void WFProcessor::abort(const std::string& reason) {
  ENTK_ERROR("wfprocessor") << "aborting workflow: " << reason;
  SyncClient sync(broker_, "wfp.abort", states_queue_, "q.ack.wfp.abort");
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (!is_final(p->state())) {
      // Described pipelines must pass through Scheduling to fail.
      if (p->state() == PipelineState::Described) {
        sync.sync(p->uid(), "pipeline", "DESCRIBED", "SCHEDULING", true);
      }
      sync.sync(p->uid(), "pipeline", to_string(p->state()), "FAILED", true);
    }
  }
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    aborted_ = true;
  }
  done_cv_.notify_all();
}

void WFProcessor::cancel() {
  ENTK_INFO("wfprocessor") << "canceling workflow";
  canceling_ = true;
  SyncClient sync(broker_, "wfp.cancel", states_queue_, "q.ack.wfp.cancel");
  for (const PipelinePtr& p : registry_->pipelines()) {
    if (is_final(p->state())) continue;
    for (const StagePtr& stage : p->stages()) {
      for (const TaskPtr& task : stage->tasks()) {
        if (!is_final(task->state())) {
          sync.sync(task->uid(), "task", to_string(task->state()), "CANCELED",
                    true);
        }
      }
      if (!is_final(stage->state())) {
        sync.sync(stage->uid(), "stage", to_string(stage->state()),
                  "CANCELED", true);
      }
    }
    sync.sync(p->uid(), "pipeline", to_string(p->state()), "CANCELED", true);
  }
  done_cv_.notify_all();
}

// ------------------------------------------------------------- Enqueue --

void WFProcessor::enqueue_loop() {
  SyncClient sync(broker_, "wfp.enqueue", states_queue_, "q.ack.wfp.enq");
  std::uint64_t scans = 0;
  while (!stop_requested()) {
    beat();
    if (++scans % 2048 == 0) {
      ENTK_DEBUG("wfprocessor") << "enqueue alive, scan " << scans;
    }
    std::deque<std::string> retries;
    {
      std::unique_lock<std::mutex> lock(work_mutex_);
      work_cv_.wait_for(lock, std::chrono::milliseconds(2), [this] {
        return stop_requested() || work_available_ || !retry_uids_.empty();
      });
      if (stop_requested()) return;
      work_available_ = false;
      retries.swap(retry_uids_);
    }

    BusyScope busy(enqueue_busy_);

    // Resubmissions first: failed tasks that were re-described.
    for (const std::string& uid : retries) {
      TaskPtr task = registry_->task(uid);
      if (task) enqueue_task_batch({task}, sync);
    }

    if (canceling_.load()) continue;
    // Walk pipelines looking for schedulable stages.
    for (const PipelinePtr& pipeline : registry_->pipelines()) {
      if (is_final(pipeline->state())) continue;
      if (pipeline->state() == PipelineState::Described) {
        sync.sync(pipeline->uid(), "pipeline", "DESCRIBED", "SCHEDULING",
                  true);
      }
      StagePtr stage = pipeline->current_stage();
      if (!stage) {
        // Exhausted: either the controller still holds the pipeline open
        // (a generator may append more stages) or it is ready to complete.
        complete_pipeline(pipeline, sync);
        continue;
      }
      if (stage->state() == StageState::Done) {
        // A live finish_stage is between this stage's DONE commit and the
        // advance (running its post_exec hook): it advances the pipeline.
        if (is_finishing(stage->uid())) continue;
        // Crash recovery: a previous generation died inside a post_exec
        // hook after the stage committed DONE but before the pipeline
        // advanced. Pick up where it left off — the hook itself was
        // consumed (at-most-once) and does not re-run.
        register_appended_stages(pipeline);
        stage = pipeline->advance_past(stage);
        if (!stage) {
          complete_pipeline(pipeline, sync);
          continue;
        }
      }
      if (stage->state() != StageState::Described) continue;
      schedule_stage(pipeline, stage, sync);
    }
  }
}

void WFProcessor::notify_work() {
  {
    std::lock_guard<std::mutex> lock(work_mutex_);
    work_available_ = true;
  }
  work_cv_.notify_all();
}

void WFProcessor::register_appended_stages(const PipelinePtr& pipeline) {
  for (const StagePtr& s : pipeline->stages()) {
    if (!registry_->stage(s->uid())) registry_->add_stage(s);
  }
}

void WFProcessor::complete_pipeline(const PipelinePtr& pipeline,
                                    SyncClient& sync) {
  if (pipeline->state() != PipelineState::Scheduling) return;
  if (pipeline->held_open()) return;
  if (!pipeline->begin_completion()) return;
  sync.sync(pipeline->uid(), "pipeline", "SCHEDULING", "DONE", true);
  profiler_->record("wfprocessor", "pipeline_done", pipeline->uid());
  json::Value ev;
  ev["event"] = "pipeline";
  ev["uid"] = pipeline->uid();
  ev["name"] = pipeline->name;
  ev["outcome"] = "DONE";
  emit_event(std::move(ev));
  done_cv_.notify_all();
}

void WFProcessor::schedule_stage(const PipelinePtr& pipeline,
                                 const StagePtr& stage, SyncClient& sync) {
  ENTK_DEBUG("wfprocessor") << "scheduling stage " << stage->uid() << " ("
                            << stage->task_count() << " tasks) of "
                            << pipeline->uid();
  profiler_->record("wfprocessor", "stage_schedule_start", stage->uid());
  // Unconfirmed: q.states is one FIFO queue drained by one Synchronizer, so
  // the next confirmed sync on this channel — the tasks' SCHEDULED batch,
  // or the stage's own SCHEDULED below when every task was recovered or
  // canceled — is applied after this one. Either way the stage has left
  // Described before this function returns, so the rescan cannot schedule
  // it twice.
  sync.sync(stage->uid(), "stage", "DESCRIBED", "SCHEDULING", false);
  std::size_t recovered = 0;
  std::vector<TaskPtr> chunk;
  for (const TaskPtr& task : stage->tasks()) {
    if (config_.recovered_done.count(task->uid()) > 0) {
      // Completed in a previous attempt: skip execution entirely.
      ++recovered;
      ++tasks_recovered_;
      profiler_->record("wfprocessor", "task_recovered", task->uid());
      continue;
    }
    if (task->state() == TaskState::Canceled) {
      // Canceled before this stage was scheduled (cancel_tasks counted it
      // as resolved in the book already): never dispatch it.
      continue;
    }
    chunk.push_back(task);
    if (chunk.size() >= config_.batch_size) {
      enqueue_task_batch(chunk, sync);
      chunk.clear();
    }
  }
  if (!chunk.empty()) enqueue_task_batch(chunk, sync);
  sync.sync(stage->uid(), "stage", "SCHEDULING", "SCHEDULED", true);
  profiler_->record("wfprocessor", "stage_schedule_stop", stage->uid());
  // Completion check even when nothing was recovered: cancellations, and
  // results that came back before the SCHEDULED commit, may have resolved
  // every task of this stage in the book already.
  bool stage_complete = false;
  bool stage_failed = false;
  {
    std::lock_guard<std::mutex> lock(book_mutex_);
    StageBook& book = stage_books_[stage->uid()];
    book.resolved += recovered;
    book.dispatched = true;
    stage_complete = book.claim_finish(stage->task_count());
    stage_failed = book.failed > 0;
  }
  if (stage_complete) {
    finish_stage(pipeline, stage, stage_failed, sync);
  }
}

void WFProcessor::enqueue_task_batch(const std::vector<TaskPtr>& tasks,
                                     SyncClient& sync) {
  std::vector<Transition> scheduling;
  std::vector<Transition> scheduled;
  scheduling.reserve(tasks.size());
  scheduled.reserve(tasks.size());
  json::Array uids;
  json::Array units;
  uids.reserve(tasks.size());
  for (const TaskPtr& task : tasks) {
    scheduling.push_back({task->uid(), "task", "DESCRIBED", "SCHEDULING"});
    scheduled.push_back({task->uid(), "task", "SCHEDULING", "SCHEDULED"});
    if (config_.inline_units) {
      units.push_back(to_unit(*task).to_json());
    } else {
      uids.push_back(task->uid());
    }
  }
  sync.sync_batch(scheduling, false);
  // The Scheduled transitions are confirmed before the tasks become
  // runnable — the state store must know about a task before the RTS can
  // see it — with ONE round-trip for the whole batch.
  sync.sync_batch(scheduled, true);
  // Recorded before the publish so the trace's causal order holds even
  // when the consumer records task_submitted on another thread first.
  for (const TaskPtr& task : tasks) {
    profiler_->record("wfprocessor", "task_enqueued", task->uid());
  }
  if (enqueued_metric_ != nullptr) enqueued_metric_->add(tasks.size());
  if (config_.inline_units) {
    // One message PER task, published in one vectored broker call: the
    // syncs above still amortize across the batch, but the work-sharing
    // granule on the Pending queue stays a single task — N workers split
    // a burst instead of one worker's batch get swallowing it whole, and
    // a killed worker's requeue returns only what it actually held.
    std::vector<mq::Message> msgs;
    msgs.reserve(units.size());
    for (json::Value& unit : units) {
      json::Value msg;
      json::Array one;
      one.push_back(std::move(unit));
      msg["units"] = std::move(one);
      msgs.push_back(mq::Message::json_body(pending_queue_, std::move(msg)));
    }
    broker_->publish_batch(pending_queue_, std::move(msgs));
  } else {
    json::Value msg;
    msg["uids"] = std::move(uids);
    broker_->publish(pending_queue_,
                     mq::Message::json_body(pending_queue_, std::move(msg)));
  }
}

// ------------------------------------------------------------- Dequeue --

void WFProcessor::dequeue_loop() {
  SyncClient sync(broker_, "wfp.dequeue", states_queue_, "q.ack.wfp.deq");
  // Pull up to a batch of Done messages in one queue-lock acquisition.
  const std::size_t drain = std::max<std::size_t>(1, config_.batch_size);
  while (!stop_requested()) {
    beat();
    const std::vector<mq::Delivery> deliveries =
        broker_->get_batch(done_queue_, drain, config_.poll_timeout_s);
    if (deliveries.empty()) continue;
    BusyScope busy(dequeue_busy_);
    std::vector<std::uint64_t> tags;
    // The shared payloads are read in place (zero-copy); `payloads` keeps
    // them alive while `results` points at individual completion records
    // inside them.
    std::vector<std::shared_ptr<const json::Value>> payloads;
    std::vector<const json::Value*> results;
    tags.reserve(deliveries.size());
    payloads.reserve(deliveries.size());
    results.reserve(deliveries.size());
    for (const mq::Delivery& delivery : deliveries) {
      tags.push_back(delivery.delivery_tag);
      std::shared_ptr<const json::Value> body;
      try {
        body = delivery.message.payload();
      } catch (const json::ParseError&) {
        continue;
      }
      if (!body->contains("results")) continue;
      for (const json::Value& r : body->at("results").as_array()) {
        results.push_back(&r);
      }
      payloads.push_back(std::move(body));
    }
    broker_->ack_batch(done_queue_, tags);
    resolve_results(results, sync);
  }
}

void WFProcessor::resolve_task(const json::Value& result, SyncClient& sync) {
  const std::string uid = result.get_string("uid", "");
  TaskPtr task = registry_->task(uid);
  if (!task) {
    ENTK_WARN("wfprocessor") << "result for unknown task " << uid;
    return;
  }
  if (canceling_.load() || task->state() == TaskState::Canceled) {
    // Result of a unit that outlived cancellation: ignore it.
    return;
  }
  if (task->state() == TaskState::Done || task->state() == TaskState::Failed) {
    // At-least-once redelivery: a worker lost its connection after
    // executing but before acking, a survivor re-executed, and both
    // results arrived. The first resolution already advanced the stage
    // book and the state store; dropping the duplicate keeps "DONE exactly
    // once" true for the workflow even though execution was at-least-once.
    ENTK_WARN("wfprocessor") << "duplicate result for " << uid
                             << " ignored (task already "
                             << to_string(task->state()) << ")";
    if (duplicate_metric_ != nullptr) duplicate_metric_->add(1);
    return;
  }
  const int exit_code = static_cast<int>(result.get_int("exit_code", 0));
  task->set_exit_code(exit_code);

  sync.sync(uid, "task", "SUBMITTED", "EXECUTED", false);
  profiler_->record("wfprocessor", "task_dequeued", uid);

  StagePtr stage = registry_->stage(task->parent_stage());
  PipelinePtr pipeline = registry_->pipeline(task->parent_pipeline());
  if (!stage || !pipeline) {
    throw EnTKError("task " + uid + " has no registered parents");
  }

  sync.sync(uid, "task", "EXECUTED", "FAILED", true);
  int limit = task->retry_limit >= 0 ? task->retry_limit
                                     : config_.default_task_retry_limit;
  if (task->attempts() < limit) {
    // Resubmission: re-describe and hand back to Enqueue (paper §II-A:
    // failed tasks are resubmitted without restarting completed tasks).
    task->bump_attempts();
    sync.sync(uid, "task", "FAILED", "DESCRIBED", true);
    ++resubmissions_;
    profiler_->record("wfprocessor", "task_resubmit", uid);
    {
      std::lock_guard<std::mutex> lock(work_mutex_);
      retry_uids_.push_back(uid);
    }
    work_cv_.notify_all();
    if (resubmit_metric_ != nullptr) resubmit_metric_->add(1);
    return;
  }
  ++tasks_failed_;
  profiler_->record("wfprocessor", "task_failed", uid);
  if (failed_metric_ != nullptr) failed_metric_->add(1);
  emit_task_event(task, "FAILED");

  bool stage_complete = false;
  {
    std::lock_guard<std::mutex> lock(book_mutex_);
    StageBook& book = stage_books_[stage->uid()];
    ++book.resolved;
    ++book.failed;
    stage_complete = book.claim_finish(stage->task_count());
  }
  if (stage_complete) finish_stage(pipeline, stage, true, sync);
}

void WFProcessor::resolve_results(const std::vector<const json::Value*>& results,
                                  SyncClient& sync) {
  // DONE results of the drained batch share two vectored syncs (Executed
  // unconfirmed, Done confirmed — one round-trip for the whole batch);
  // failures and retries keep the per-task path, which owns the branching.
  struct Resolved {
    TaskPtr task;
    StagePtr stage;
    PipelinePtr pipeline;
  };
  std::vector<Resolved> resolved;
  std::vector<const json::Value*> rest;
  std::vector<Transition> executed;
  std::vector<Transition> done;
  for (const json::Value* result_ptr : results) {
    const json::Value& result = *result_ptr;
    if (result.get_string("outcome", "DONE") != "DONE") {
      rest.push_back(&result);
      continue;
    }
    const std::string uid = result.get_string("uid", "");
    TaskPtr task = registry_->task(uid);
    if (!task) {
      ENTK_WARN("wfprocessor") << "result for unknown task " << uid;
      continue;
    }
    if (canceling_.load() || task->state() == TaskState::Canceled) {
      continue;  // unit outlived cancellation: ignore
    }
    if (task->state() == TaskState::Done ||
        task->state() == TaskState::Failed) {
      // Duplicate of an already-resolved task (at-least-once redelivery):
      // see resolve_task for the rationale.
      ENTK_WARN("wfprocessor") << "duplicate result for " << uid
                               << " ignored (task already "
                               << to_string(task->state()) << ")";
      if (duplicate_metric_ != nullptr) duplicate_metric_->add(1);
      continue;
    }
    StagePtr stage = registry_->stage(task->parent_stage());
    PipelinePtr pipeline = registry_->pipeline(task->parent_pipeline());
    if (!stage || !pipeline) {
      ENTK_ERROR("wfprocessor") << "task " << uid << " has no registered "
                                << "parents";
      continue;
    }
    task->set_exit_code(static_cast<int>(result.get_int("exit_code", 0)));
    executed.push_back({uid, "task", "SUBMITTED", "EXECUTED"});
    done.push_back({uid, "task", "EXECUTED", "DONE"});
    resolved.push_back({std::move(task), std::move(stage),
                        std::move(pipeline)});
  }

  if (!resolved.empty()) {
    sync.sync_batch(executed, false);
    for (const Resolved& r : resolved) {
      profiler_->record("wfprocessor", "task_dequeued", r.task->uid());
    }
    sync.sync_batch(done, true);
    tasks_done_ += resolved.size();
    for (const Resolved& r : resolved) {
      profiler_->record("wfprocessor", "task_done", r.task->uid());
      emit_task_event(r.task, "DONE");
    }
    if (done_metric_ != nullptr) done_metric_->add(resolved.size());

    // Stage bookkeeping: one lock acquisition for the whole batch, then
    // finish whichever stages the batch completed.
    std::vector<std::pair<const Resolved*, bool>> completions;
    {
      std::lock_guard<std::mutex> lock(book_mutex_);
      for (const Resolved& r : resolved) {
        StageBook& book = stage_books_[r.stage->uid()];
        ++book.resolved;
        if (book.claim_finish(r.stage->task_count())) {
          completions.emplace_back(&r, book.failed > 0);
        }
      }
    }
    for (const auto& [r, stage_failed] : completions) {
      finish_stage(r->pipeline, r->stage, stage_failed, sync);
    }
  }

  for (const json::Value* result : rest) {
    try {
      resolve_task(*result, sync);
    } catch (const EnTKError& e) {
      ENTK_ERROR("wfprocessor") << "failed to resolve task result: "
                                << e.what();
    }
  }
}

void WFProcessor::set_finishing(const std::string& stage_uid, bool finishing) {
  std::lock_guard<std::mutex> lock(book_mutex_);
  stage_books_[stage_uid].finishing = finishing;
}

bool WFProcessor::is_finishing(const std::string& stage_uid) {
  std::lock_guard<std::mutex> lock(book_mutex_);
  const auto it = stage_books_.find(stage_uid);
  return it != stage_books_.end() && it->second.finishing;
}

void WFProcessor::finish_stage(const PipelinePtr& pipeline,
                               const StagePtr& stage, bool stage_failed,
                               SyncClient& sync) {
  // Set before the DONE commit and cleared on every exit, including a
  // throwing hook: a rescan that sees the stage DONE while the flag is set
  // leaves the advance to this call.
  set_finishing(stage->uid(), true);
  struct ClearFinishing {
    WFProcessor* wfp;
    const std::string& uid;
    ~ClearFinishing() { wfp->set_finishing(uid, false); }
  } clear_finishing{this, stage->uid()};
  json::Value stage_ev;
  stage_ev["event"] = "stage";
  stage_ev["uid"] = stage->uid();
  stage_ev["name"] = stage->name;
  stage_ev["pipeline"] = pipeline->uid();

  if (stage_failed) {
    sync.sync(stage->uid(), "stage", "SCHEDULED", "FAILED", true);
    sync.sync(pipeline->uid(), "pipeline", "SCHEDULING", "FAILED", true);
    ENTK_WARN("wfprocessor") << "pipeline " << pipeline->uid()
                             << " failed at stage " << stage->uid();
    stage_ev["outcome"] = "FAILED";
    emit_event(std::move(stage_ev));
    json::Value pipe_ev;
    pipe_ev["event"] = "pipeline";
    pipe_ev["uid"] = pipeline->uid();
    pipe_ev["name"] = pipeline->name;
    pipe_ev["outcome"] = "FAILED";
    emit_event(std::move(pipe_ev));
    done_cv_.notify_all();
    return;
  }

  sync.sync(stage->uid(), "stage", "SCHEDULED", "DONE", true);
  profiler_->record("wfprocessor", "stage_done", stage->uid());
  stage_ev["outcome"] = "DONE";
  emit_event(std::move(stage_ev));

  // Post-execution hook: may extend the pipeline (adaptivity/branching).
  // The hook is consumed before it runs (at-most-once): an escaping
  // exception becomes a captured component fault — the supervisor restarts
  // the WFProcessor and the enqueue rescan advances past this stage
  // WITHOUT re-running user code.
  if (stage->post_exec) {
    auto hook = std::move(stage->post_exec);
    stage->post_exec = nullptr;
    try {
      hook();
    } catch (const std::exception& e) {
      throw EnTKError("stage " + stage->uid() + " post_exec threw: " +
                      e.what());
    } catch (...) {
      throw EnTKError("stage " + stage->uid() +
                      " post_exec threw a non-standard exception");
    }
    // Register any stages the hook appended.
    register_appended_stages(pipeline);
  }

  StagePtr next = pipeline->advance_past(stage);
  ENTK_DEBUG("wfprocessor") << "stage " << stage->uid() << " done, next="
                            << (next ? next->uid() : "none") << " held="
                            << (pipeline->held_open() ? "y" : "n");
  if (next) {
    notify_work();
  } else if (pipeline->held_open()) {
    // The ensemble Controller owns this pipeline's lifetime: it idles in
    // Scheduling until rules append more stages or release the hold (the
    // enqueue rescan completes it then).
    notify_work();
  } else {
    complete_pipeline(pipeline, sync);
  }
}

std::size_t WFProcessor::cancel_tasks(const std::vector<std::string>& uids) {
  // Runs on the caller's thread (the ensemble Controller), so it owns a
  // private sync channel.
  SyncClient sync(broker_, "wfp.cancel_tasks", states_queue_,
                  "q.ack.wfp.cancel_tasks");
  std::size_t canceled = 0;
  for (const std::string& uid : uids) {
    TaskPtr task = registry_->task(uid);
    if (!task) continue;
    bool won = false;
    // The current state can move under us (SCHEDULING -> SCHEDULED -> ...);
    // re-read and retry a few times. Only winning the CANCELED transition
    // entitles us to the stage-book credit — if a completion raced in
    // first, resolve_task already took it.
    for (int attempt = 0; attempt < 3 && !won; ++attempt) {
      const TaskState st = task->state();
      if (is_final(st)) break;
      won = sync.sync(uid, "task", to_string(st), "CANCELED", true);
    }
    if (!won) continue;
    ++canceled;
    ++tasks_canceled_;
    profiler_->record("wfprocessor", "task_canceled", uid);
    emit_task_event(task, "CANCELED");
    StagePtr stage = registry_->stage(task->parent_stage());
    PipelinePtr pipeline = registry_->pipeline(task->parent_pipeline());
    if (!stage || !pipeline) continue;
    // A canceled task counts as resolved or its stage would never finish.
    // Completion may only fire once the stage is fully dispatched;
    // earlier cancellations are picked up by the completion check at the
    // end of schedule_stage.
    bool stage_complete = false;
    {
      std::lock_guard<std::mutex> lock(book_mutex_);
      StageBook& book = stage_books_[stage->uid()];
      ++book.resolved;
      stage_complete = book.claim_finish(stage->task_count());
    }
    if (stage_complete) {
      bool stage_failed = false;
      {
        std::lock_guard<std::mutex> lock(book_mutex_);
        stage_failed = stage_books_[stage->uid()].failed > 0;
      }
      finish_stage(pipeline, stage, stage_failed, sync);
    }
  }
  return canceled;
}

void WFProcessor::emit_event(json::Value event) {
  if (config_.events_queue.empty()) return;
  ENTK_DEBUG("wfprocessor") << "emit " << event.get_string("event", "?")
                            << " " << event.get_string("uid", "?") << " "
                            << event.get_string("outcome", "?");
  try {
    broker_->publish(config_.events_queue,
                     mq::Message::json_body(config_.events_queue,
                                            std::move(event)));
  } catch (const std::exception&) {
    // Broker closing during teardown: the stream consumer is gone anyway.
  }
}

void WFProcessor::emit_task_event(const TaskPtr& task, const char* outcome) {
  if (config_.events_queue.empty()) return;
  json::Value ev;
  ev["event"] = "task";
  ev["uid"] = task->uid();
  ev["name"] = task->name;
  ev["outcome"] = outcome;
  ev["exit_code"] = task->exit_code();
  ev["stage"] = task->parent_stage();
  ev["pipeline"] = task->parent_pipeline();
  if (!task->metadata.is_null()) ev["metadata"] = task->metadata;
  emit_event(std::move(ev));
}

}  // namespace entk
