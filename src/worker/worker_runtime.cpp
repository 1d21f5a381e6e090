#include "src/worker/worker_runtime.hpp"

#include <iterator>
#include <utility>
#include <vector>

#include "src/common/clock.hpp"
#include "src/common/error.hpp"
#include "src/common/log.hpp"

namespace entk::worker {

namespace {
/// The runtime whose emgr is inside Rts::submit() on this thread (coalescing
/// only): completions the RTS makes there join that submission's Done
/// message instead of the flusher's buffer.
thread_local const WorkerRuntime* t_submitting = nullptr;
}  // namespace

WorkerRuntime::WorkerRuntime(std::string component_name,
                             WorkerRuntimeConfig config,
                             mq::BrokerHandlePtr broker, UnitResolver resolver,
                             std::string pending_queue, std::string done_queue,
                             std::string states_queue,
                             rts::RtsFactory rts_factory, ProfilerPtr profiler)
    : Component(std::move(component_name), std::move(profiler)),
      config_(std::move(config)),
      broker_(std::move(broker)),
      resolver_(std::move(resolver)),
      pending_queue_(std::move(pending_queue)),
      done_queue_(std::move(done_queue)),
      states_queue_(std::move(states_queue)),
      rts_factory_(std::move(rts_factory)),
      sync_component_(config_.worker_id.empty() ? "emgr"
                                                : config_.worker_id) {}

WorkerRuntime::~WorkerRuntime() {
  // Joins the workers; RTS termination stays with the explicit stop() (the
  // seed destructor likewise only joined threads).
  Component::stop();
}

void WorkerRuntime::resolve_metrics() {
  auto* reg = metrics();
  if (reg == nullptr || submit_us_metric_ != nullptr) return;
  submit_us_metric_ = &reg->histogram("rts.submit_us");
  submitted_metric_ = &reg->counter("rts.units_submitted");
  completed_metric_ = &reg->counter("rts.units_completed");
  if (!config_.worker_id.empty()) {
    worker_done_metric_ =
        &reg->counter("worker." + config_.worker_id + ".tasks_done");
    worker_flight_metric_ =
        &reg->gauge("worker." + config_.worker_id + ".in_flight");
  }
}

void WorkerRuntime::acquire_resources() {
  resolve_metrics();
  profiler_->record("rmgr", "resource_acquire_start");
  rts::RtsPtr rts = rts_factory_();
  {
    std::lock_guard<std::mutex> lock(rts_mutex_);
    rts_ = std::move(rts);
  }
  attach_callback();
  rts_->initialize();
  profiler_->record("rmgr", "resource_acquire_stop");
}

void WorkerRuntime::attach_callback() {
  // RTS Callback subcomponent: forward completions to the Done queue
  // (paper Fig 2, message 4) as {"results": [...]} messages. With
  // coalescing on, results share one message; otherwise each leaves alone.
  std::lock_guard<std::mutex> lock(rts_mutex_);
  rts_->set_completion_callback([this](const rts::UnitResult& result) {
    json::Value msg;
    msg["uid"] = result.uid;
    msg["outcome"] = rts::to_string(result.outcome);
    msg["exit_code"] = result.exit_code;
    msg["exec_start_t"] = result.exec_start_t;
    msg["exec_end_t"] = result.exec_end_t;
    msg["staging_in_s"] = result.staging_in_s;
    msg["staging_out_s"] = result.staging_out_s;
    if (!config_.worker_id.empty()) msg["worker"] = config_.worker_id;
    if (!result.metadata.is_null()) msg["metadata"] = result.metadata;
    bool coalesced = false;
    if (t_submitting == this) {
      // Completed inside the emgr's submit(): the emgr publishes the whole
      // submission as one Done message once submit() returns.
      inline_results_.push_back(std::move(msg));
      coalesced = true;
    } else if (coalescing()) {
      bool wake = false;
      {
        std::lock_guard<std::mutex> flush_lock(flush_mutex_);
        if (flusher_running_) {
          // Only the first result wakes the flusher; later ones ride along
          // in whatever it swaps out next.
          wake = completion_buffer_.empty();
          completion_buffer_.push_back(std::move(msg));
          coalesced = true;
        }
      }
      if (wake) flush_cv_.notify_one();
    }
    if (!coalesced) {
      std::vector<json::Value> one;
      one.push_back(std::move(msg));
      flush_completions(std::move(one));
    }
    // Release the delivery claim only after the result reached the Done
    // queue (ack_on_completion never buffers): a crash before this point
    // leaves the delivery unacked and the broker requeues it for a
    // surviving worker.
    if (config_.ack_on_completion) ledger_complete(result.uid);
    tasks_done_.fetch_add(1);
    profiler_->record("rts_callback", "unit_completed", result.uid);
    if (completed_metric_ != nullptr) completed_metric_->add(1);
    if (worker_done_metric_ != nullptr) worker_done_metric_->add(1);
  });
}

void WorkerRuntime::flush_completions(std::vector<json::Value> buffered) {
  if (buffered.empty()) return;
  json::Value msg;
  json::Array results;
  results.reserve(buffered.size());
  for (json::Value& r : buffered) results.push_back(std::move(r));
  msg["results"] = std::move(results);
  try {
    broker_->publish(done_queue_,
                     mq::Message::json_body(done_queue_, std::move(msg)));
  } catch (const MqError&) {
    // AppManager broker is gone: we are shutting down.
  }
}

void WorkerRuntime::submit_to_rts(std::vector<rts::TaskUnit> batch) {
  // Runs on exit too, so a throwing submit() cannot strand results that
  // were already completed inline.
  struct InlineScope {
    WorkerRuntime* rt;  ///< null: not coalescing
    explicit InlineScope(WorkerRuntime* r) : rt(r) { t_submitting = rt; }
    ~InlineScope() {
      if (rt == nullptr) return;
      t_submitting = nullptr;
      rt->flush_completions(std::exchange(rt->inline_results_, {}));
    }
  } scope(coalescing() ? this : nullptr);
  std::lock_guard<std::mutex> lock(rts_mutex_);
  if (!rts_ || !rts_->is_healthy()) {
    throw RtsError("emgr: no healthy RTS");
  }
  rts_->submit(std::move(batch));
}

void WorkerRuntime::flush_loop() {
  std::unique_lock<std::mutex> lock(flush_mutex_);
  while (!stop_requested()) {
    flush_cv_.wait(lock, [this] {
      return stop_requested() || !completion_buffer_.empty();
    });
    std::vector<json::Value> buffered;
    buffered.swap(completion_buffer_);
    lock.unlock();
    flush_completions(std::move(buffered));
    lock.lock();
  }
  // Final drain; late callbacks bypass the buffer once flusher_running_ is
  // cleared below.
  flusher_running_ = false;
  std::vector<json::Value> buffered;
  buffered.swap(completion_buffer_);
  lock.unlock();
  flush_completions(std::move(buffered));
}

void WorkerRuntime::on_start() {
  resolve_metrics();
  if (coalescing()) {
    {
      std::lock_guard<std::mutex> lock(flush_mutex_);
      flusher_running_ = true;
    }
    add_worker("flush", [this] { flush_loop(); });
  }
  add_worker("emgr", [this] { emgr_loop(); });
  add_worker("heartbeat", [this] { heartbeat_loop(); });
  profiler_->record(name(), "emgr_start");
}

void WorkerRuntime::on_stop_requested() {
  // The flusher waits without a timeout: passing through its mutex orders
  // this wake-up after any predicate check it is in the middle of.
  { std::lock_guard<std::mutex> lock(flush_mutex_); }
  flush_cv_.notify_all();
}

void WorkerRuntime::on_reattach() {
  // Pending-queue deliveries (and sync acks) the dead emgr worker held
  // unacked go back for the new generation to submit.
  if (broker_->has_queue(pending_queue_)) {
    broker_->requeue_unacked(pending_queue_);
  }
  if (broker_->has_queue(config_.ack_queue)) {
    broker_->requeue_unacked(config_.ack_queue);
  }
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  ledger_remaining_.clear();
  ledger_uid_tag_.clear();
  unit_cache_.clear();
}

double WorkerRuntime::stop() {
  Component::stop();  // idempotent worker join (fixes the old double-join)
  if (rts_terminated_.exchange(true)) return 0.0;
  const double t0 = wall_now_s();
  {
    std::lock_guard<std::mutex> lock(rts_mutex_);
    if (rts_) rts_->terminate();
  }
  profiler_->record(name(), "emgr_stop");
  return wall_now_s() - t0;
}

void WorkerRuntime::inject_rts_failure() {
  std::lock_guard<std::mutex> lock(rts_mutex_);
  if (rts_) rts_->kill();
}

bool WorkerRuntime::request_resize(const rts::ResizeRequest& request) {
  std::lock_guard<std::mutex> lock(rts_mutex_);
  return rts_ ? rts_->resize(request) : false;
}

void WorkerRuntime::set_fatal_handler(
    std::function<void(const std::string&)> handler) {
  fatal_handler_ = std::move(handler);
}

rts::RtsStats WorkerRuntime::rts_stats() const {
  std::lock_guard<std::mutex> lock(rts_mutex_);
  return rts_ ? rts_->stats() : rts::RtsStats{};
}

std::size_t WorkerRuntime::in_flight() const {
  std::lock_guard<std::mutex> lock(ledger_mutex_);
  return ledger_uid_tag_.size();
}

void WorkerRuntime::ledger_track(std::uint64_t tag,
                                 const std::vector<std::string>& uids) {
  bool ack_now = false;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    if (uids.empty()) {
      ack_now = true;  // nothing submittable in it: release immediately
    } else {
      ledger_remaining_[tag] = uids.size();
      for (const std::string& uid : uids) {
        // A redelivered uid can race its still-running first attempt:
        // supersede the old claim so the stale delivery drains (its result
        // is deduplicated downstream by the WFProcessor).
        const auto it = ledger_uid_tag_.find(uid);
        if (it != ledger_uid_tag_.end()) {
          const auto old = ledger_remaining_.find(it->second);
          if (old != ledger_remaining_.end() && --old->second == 0) {
            ledger_remaining_.erase(old);
            try {
              broker_->ack(pending_queue_, it->second);
            } catch (const MqError&) {
            }
          }
        }
        ledger_uid_tag_[uid] = tag;
      }
    }
  }
  if (ack_now) {
    try {
      broker_->ack(pending_queue_, tag);
    } catch (const MqError&) {
    }
  }
  if (worker_flight_metric_ != nullptr) {
    worker_flight_metric_->set(static_cast<std::int64_t>(in_flight()));
  }
}

void WorkerRuntime::ledger_complete(const std::string& uid) {
  std::uint64_t ack_tag = 0;
  bool ack = false;
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    unit_cache_.erase(uid);
    const auto it = ledger_uid_tag_.find(uid);
    if (it == ledger_uid_tag_.end()) return;  // superseded or restart-cleared
    const std::uint64_t tag = it->second;
    ledger_uid_tag_.erase(it);
    const auto rem = ledger_remaining_.find(tag);
    if (rem != ledger_remaining_.end() && --rem->second == 0) {
      ledger_remaining_.erase(rem);
      ack_tag = tag;
      ack = true;
    }
  }
  if (ack) {
    try {
      broker_->ack(pending_queue_, ack_tag);
    } catch (const MqError&) {
      // Broker gone mid-shutdown; the delivery requeues on disconnect.
    }
  }
  if (worker_flight_metric_ != nullptr) {
    worker_flight_metric_->set(static_cast<std::int64_t>(in_flight()));
  }
}

void WorkerRuntime::ledger_nack(const std::vector<std::uint64_t>& tags) {
  {
    std::lock_guard<std::mutex> lock(ledger_mutex_);
    for (const std::uint64_t tag : tags) {
      ledger_remaining_.erase(tag);
      for (auto it = ledger_uid_tag_.begin(); it != ledger_uid_tag_.end();) {
        if (it->second == tag) {
          unit_cache_.erase(it->first);
          it = ledger_uid_tag_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  for (const std::uint64_t tag : tags) {
    try {
      broker_->nack(pending_queue_, tag, /*requeue=*/true);
    } catch (const MqError&) {
    }
  }
}

void WorkerRuntime::emgr_loop() {
  SyncClient sync(broker_, sync_component_, states_queue_, config_.ack_queue);
  while (!stop_requested()) {
    beat();
    // Bounded prefetch: with a cap configured, only request the units we
    // still have capacity to run; the surplus stays queued for an idle
    // sibling worker instead of sitting in this worker's unacked ledger.
    std::size_t want = config_.submit_batch;
    if (config_.ack_on_completion && config_.max_in_flight > 0) {
      const std::size_t flying = in_flight();
      if (flying >= config_.max_in_flight) {
        if (wait_stop_for(config_.poll_timeout_s)) break;
        continue;
      }
      want = std::min(want, config_.max_in_flight - flying);
    }
    // Batch: drain whatever is pending, up to submit_batch, in one broker
    // round-trip. Two wire formats are accepted: {"uids": [...]} (registry
    // uids, resolved in-process) and {"units": [...]} (self-contained units
    // for registry-less remote workers).
    const std::vector<mq::Delivery> deliveries =
        broker_->get_batch(pending_queue_, want, config_.poll_timeout_s);
    if (deliveries.empty()) continue;
    BusyScope busy(emgr_busy_);
    std::vector<rts::TaskUnit> batch;
    std::vector<std::string> uids;
    std::vector<std::uint64_t> tags;
    std::vector<std::size_t> message_ends;  ///< batch.size() after each message
    tags.reserve(deliveries.size());
    for (const mq::Delivery& delivery : deliveries) {
      tags.push_back(delivery.delivery_tag);
      std::shared_ptr<const json::Value> msg;
      try {
        msg = delivery.message.payload();  // shared, zero-copy in-process
      } catch (const json::ParseError&) {
        continue;
      }
      const std::size_t first = uids.size();
      if (msg->contains("units")) {
        for (const json::Value& u : msg->at("units").as_array()) {
          rts::TaskUnit unit = rts::TaskUnit::from_json(u);
          if (unit.uid.empty()) continue;
          uids.push_back(unit.uid);
          batch.push_back(std::move(unit));
        }
      } else if (msg->contains("uids")) {
        for (const json::Value& u : msg->at("uids").as_array()) {
          const std::string& uid = u.as_string();
          std::optional<rts::TaskUnit> unit =
              resolver_ ? resolver_(uid) : std::nullopt;
          if (!unit) {
            ENTK_WARN(sync_component_) << "pending message for unknown task "
                                       << uid;
            continue;
          }
          batch.push_back(std::move(*unit));
          uids.push_back(uid);
        }
      }
      if (config_.ack_on_completion) {
        ledger_track(delivery.delivery_tag,
                     {uids.begin() + static_cast<std::ptrdiff_t>(first),
                      uids.end()});
      }
      if (uids.size() > first) message_ends.push_back(batch.size());
    }
    if (!config_.ack_on_completion) {
      broker_->ack_batch(pending_queue_, tags);
    }
    if (batch.empty()) continue;
    if (uids.size() > 1) {
      std::vector<Transition> submitting, submitted;
      submitting.reserve(uids.size());
      submitted.reserve(uids.size());
      for (const std::string& uid : uids) {
        submitting.push_back({uid, "task", "SCHEDULED", "SUBMITTING"});
        submitted.push_back({uid, "task", "SUBMITTING", "SUBMITTED"});
      }
      sync.sync_batch(submitting, false);
      // Publish the Submitted transitions BEFORE handing the units to the
      // RTS: a very short task could otherwise complete and have Dequeue's
      // Executed transition reach the Synchronizer first.
      sync.sync_batch(submitted, false);
    } else {
      sync.sync(uids.front(), "task", "SCHEDULED", "SUBMITTING", false);
      sync.sync(uids.front(), "task", "SUBMITTING", "SUBMITTED", false);
    }
    // Recorded before the RTS sees the units so the trace's causal order
    // holds: a very short unit could otherwise record unit_exec_start on
    // the RTS thread before the submit timestamp exists.
    for (const std::string& uid : uids) {
      profiler_->record("emgr", "task_submitted", uid);
    }
    if (config_.ack_on_completion) {
      // Keep a copy of every in-flight unit: an RTS restart resubmits from
      // here when no resolver can reconstruct them (inline-units path).
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      for (const rts::TaskUnit& unit : batch) unit_cache_[unit.uid] = unit;
    }
    const std::int64_t t0 = submit_us_metric_ != nullptr ? wall_now_us() : 0;
    try {
      if (coalescing()) {
        // One RTS submission per Pending message: the units a message
        // carried leave as one Done message as soon as they complete, and
        // Dequeue resolves them while the RTS runs the next message's.
        std::size_t begin = 0;
        for (const std::size_t end : message_ends) {
          const auto from = batch.begin() + static_cast<std::ptrdiff_t>(begin);
          const auto to = batch.begin() + static_cast<std::ptrdiff_t>(end);
          submit_to_rts({std::make_move_iterator(from),
                         std::make_move_iterator(to)});
          begin = end;
        }
      } else {
        submit_to_rts(std::move(batch));
      }
    } catch (const RtsError& e) {
      if (config_.ack_on_completion) {
        // The RTS never owned these units: push the deliveries back so a
        // healthy worker takes them (the resync on redelivery is rejected
        // idempotently by the transition tables).
        ENTK_WARN(sync_component_)
            << e.what() << "; returning " << tags.size()
            << " deliveries to " << pending_queue_;
        ledger_nack(tags);
      } else {
        // The heartbeat will deal with the RTS; requeue by re-describing is
        // unnecessary — units stay tracked as in flight by uid below.
        ENTK_WARN(sync_component_) << e.what();
      }
    }
    if (submit_us_metric_ != nullptr) {
      submit_us_metric_->observe(static_cast<double>(wall_now_us() - t0));
      submitted_metric_->add(uids.size());
    }
  }
}

void WorkerRuntime::sample_queue_depths() {
  // Depth gauges: ready/unacked backlog per queue, recorded in the numeric
  // (virtual_s) field with the queue name as uid. Cheap — one shared-lock
  // map walk plus one mutex grab per queue — so it can ride the heartbeat.
  auto* reg = metrics();
  for (const mq::QueueDepth& d : broker_->depth_snapshot()) {
    profiler_->record("broker", "queue_ready_depth", d.queue,
                      static_cast<double>(d.ready));
    profiler_->record("broker", "queue_unacked_depth", d.queue,
                      static_cast<double>(d.unacked));
    if (reg != nullptr) {
      // Heartbeat cadence, a handful of queues: resolving through the
      // registry here is cheaper than a name->gauge cache would earn.
      reg->gauge("mq.ready." + d.queue).set(static_cast<std::int64_t>(d.ready));
      reg->gauge("mq.unacked." + d.queue)
          .set(static_cast<std::int64_t>(d.unacked));
    }
  }
}

void WorkerRuntime::heartbeat_loop() {
  while (!stop_requested()) {
    // Interruptible probe interval: stop() wakes the heartbeat instead of
    // waiting out the sleep, so teardown is not taxed a full interval.
    if (wait_stop_for(config_.supervision.heartbeat_interval_s)) return;
    beat();
    if (config_.sample_queue_depths) sample_queue_depths();
    if (auto* reg = metrics()) reg->maybe_snapshot(wall_now_us());
    bool healthy;
    {
      std::lock_guard<std::mutex> lock(rts_mutex_);
      healthy = rts_ && rts_->is_healthy();
    }
    if (healthy) continue;
    profiler_->record("heartbeat", "rts_unhealthy");
    if (restarts_.load() >= config_.supervision.rts_restart_limit) {
      ENTK_ERROR("heartbeat") << "RTS lost and restart budget exhausted";
      if (fatal_handler_) fatal_handler_("RTS failed permanently");
      return;
    }
    restart_rts();
  }
}

void WorkerRuntime::restart_rts() {
  ++restarts_;
  ENTK_WARN("heartbeat") << "restarting failed RTS (attempt "
                         << restarts_.load() << ")";
  profiler_->record("heartbeat", "rts_restart_start");

  // Units in execution at the time of the failure are lost (paper
  // §II-B-4); capture them from the dead instance for resubmission.
  std::vector<std::string> lost;
  {
    std::lock_guard<std::mutex> lock(rts_mutex_);
    if (rts_) lost = rts_->in_flight_units();
    rts_ = rts_factory_();
  }
  attach_callback();
  rts_->initialize();

  std::vector<rts::TaskUnit> units;
  units.reserve(lost.size());
  for (const std::string& uid : lost) {
    {
      std::lock_guard<std::mutex> lock(ledger_mutex_);
      const auto cached = unit_cache_.find(uid);
      if (cached != unit_cache_.end()) {
        units.push_back(cached->second);
        continue;
      }
    }
    std::optional<rts::TaskUnit> unit =
        resolver_ ? resolver_(uid) : std::nullopt;
    if (unit) units.push_back(std::move(*unit));
  }
  if (!units.empty()) {
    ENTK_WARN("heartbeat") << "resubmitting " << units.size()
                           << " lost units";
    std::lock_guard<std::mutex> lock(rts_mutex_);
    rts_->submit(std::move(units));
  }
  profiler_->record("heartbeat", "rts_restart_stop");
}

}  // namespace entk::worker
