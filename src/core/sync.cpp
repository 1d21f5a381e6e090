#include "src/core/sync.hpp"

#include "src/common/error.hpp"
#include "src/common/log.hpp"
#include "src/core/state_store.hpp"

namespace entk {

// --------------------------------------------------------- ObjectRegistry

void ObjectRegistry::add_pipeline(const PipelinePtr& pipeline) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  pipelines_[pipeline->uid()] = pipeline;
  for (const StagePtr& stage : pipeline->stages()) {
    stages_[stage->uid()] = stage;
    for (const TaskPtr& task : stage->tasks()) tasks_[task->uid()] = task;
  }
}

void ObjectRegistry::add_stage(const StagePtr& stage) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  stages_[stage->uid()] = stage;
  for (const TaskPtr& task : stage->tasks()) tasks_[task->uid()] = task;
}

TaskPtr ObjectRegistry::task(const std::string& uid) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = tasks_.find(uid);
  return it == tasks_.end() ? nullptr : it->second;
}

StagePtr ObjectRegistry::stage(const std::string& uid) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = stages_.find(uid);
  return it == stages_.end() ? nullptr : it->second;
}

PipelinePtr ObjectRegistry::pipeline(const std::string& uid) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  const auto it = pipelines_.find(uid);
  return it == pipelines_.end() ? nullptr : it->second;
}

std::optional<rts::TaskUnit> ObjectRegistry::unit(
    const std::string& uid) const {
  TaskPtr t = task(uid);
  if (!t) return std::nullopt;
  return to_unit(*t);
}

std::size_t ObjectRegistry::task_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return tasks_.size();
}

std::vector<PipelinePtr> ObjectRegistry::pipelines() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<PipelinePtr> out;
  out.reserve(pipelines_.size());
  for (const auto& [uid, p] : pipelines_) {
    (void)uid;
    out.push_back(p);
  }
  return out;
}

// ----------------------------------------------------------- Synchronizer
// (SyncClient moved to src/worker/sync_client.cpp: remote workers use it
// through the broker without linking core.)

Synchronizer::Synchronizer(mq::BrokerHandlePtr broker, std::string states_queue,
                           ObjectRegistry* registry, StateStore* store,
                           ProfilerPtr profiler)
    : Component("synchronizer", std::move(profiler)),
      broker_(std::move(broker)),
      states_queue_(std::move(states_queue)),
      registry_(registry),
      store_(store) {}

Synchronizer::~Synchronizer() { stop(); }

void Synchronizer::on_start() {
  add_worker("sync", [this] { loop(); });
}

void Synchronizer::on_reattach() {
  // The dead worker may have died between get_batch and ack_batch; put
  // those deliveries back so no transition is lost. Replaying an entry the
  // old worker already applied is rejected by the transition tables.
  if (broker_->has_queue(states_queue_)) {
    broker_->requeue_unacked(states_queue_);
  }
}

void Synchronizer::loop() {
  profiler_->record("synchronizer", "sync_start");
  while (true) {
    beat();
    // Drain vectored: one lock acquisition pulls a whole backlog, one
    // ack_batch releases it. kDrain bounds latency for waiting requesters.
    constexpr std::size_t kDrain = 64;
    const std::vector<mq::Delivery> deliveries =
        broker_->get_batch(states_queue_, kDrain, 0.002);
    if (deliveries.empty()) {
      if (stop_requested()) break;
      continue;
    }
    BusyScope busy(busy_);
    std::vector<std::uint64_t> tags;
    tags.reserve(deliveries.size());
    for (const mq::Delivery& delivery : deliveries) {
      tags.push_back(delivery.delivery_tag);
      try {
        // Shared structured payload: in-process transitions arrive without
        // any serialization; only recovered/raw messages parse here (once).
        process(*delivery.message.payload());
      } catch (const json::ParseError& e) {
        ENTK_WARN("synchronizer") << "rejecting message: " << e.what();
        ++rejected_;
        continue;
      }
    }
    broker_->ack_batch(states_queue_, tags);
  }
  profiler_->record("synchronizer", "sync_stop");
}

void Synchronizer::process(const json::Value& msg) {
  const std::string component = msg.get_string("component", "?");
  bool ok = false;
  json::Value ack;
  if (msg.contains("batch") || msg.contains("uids")) {
    // Vectored request: the entries are applied as one uninterrupted
    // sequence (this thread is the only state writer), each validated and
    // committed individually, and the whole batch confirmed with one reply.
    // Two wire forms: compact homogeneous ({"uids": [...], kind, from, to})
    // and general per-entry ({"batch": [{uid, kind, from, to}, ...]}).
    std::size_t applied = 0;
    std::size_t total = 0;
    auto apply_entry = [&](const std::string& uid, const std::string& kind,
                           const std::string& from, const std::string& to) {
      ++total;
      bool entry_ok = false;
      try {
        entry_ok = apply(uid, kind, from, to, component);
      } catch (const EnTKError& e) {
        ENTK_WARN("synchronizer") << "rejecting batch entry: " << e.what();
      }
      if (entry_ok) {
        ++applied;
        ++processed_;
      } else {
        ++rejected_;
      }
    };
    if (msg.contains("uids")) {
      const std::string kind = msg.get_string("kind", "");
      const std::string from = msg.get_string("from", "");
      const std::string to = msg.get_string("to", "");
      for (const json::Value& u : msg.at("uids").as_array()) {
        apply_entry(u.as_string(), kind, from, to);
      }
    } else {
      for (const json::Value& entry : msg.at("batch").as_array()) {
        apply_entry(entry.get_string("uid", ""), entry.get_string("kind", ""),
                    entry.get_string("from", ""), entry.get_string("to", ""));
      }
    }
    ok = applied == total;
    ack["corr"] = msg.get_int("corr", 0);
    ack["applied"] = applied;
  } else {
    try {
      ok = apply(msg.get_string("uid", ""), msg.get_string("kind", ""),
                 msg.get_string("from", ""), msg.get_string("to", ""),
                 component);
    } catch (const EnTKError& e) {
      ENTK_WARN("synchronizer") << "rejecting message: " << e.what();
    }
    if (ok) {
      ++processed_;
    } else {
      ++rejected_;
    }
    ack["uid"] = msg.get_string("uid", "");
    ack["to"] = msg.get_string("to", "");
  }
  const std::string reply_to = msg.get_string("reply_to", "");
  if (!reply_to.empty()) {
    ack["ok"] = ok;
    try {
      broker_->publish(reply_to,
                       mq::Message::json_body(reply_to, std::move(ack)));
    } catch (const MqError&) {
      // Requester is gone; nothing to do.
    }
  }
}

bool Synchronizer::apply(const std::string& uid, const std::string& kind,
                         const std::string& from, const std::string& to,
                         const std::string& component) {
  if (kind == "task") {
    TaskPtr task = registry_->task(uid);
    if (!task) return false;
    const TaskState from_s = task_state_from_string(from);
    const TaskState to_s = task_state_from_string(to);
    if (task->state() != from_s || !is_valid_transition(from_s, to_s)) {
      ENTK_WARN("synchronizer")
          << component << ": invalid task transition " << from << "->" << to
          << " (current " << to_string(task->state()) << ") for " << uid;
      return false;
    }
    task->set_state(to_s);
  } else if (kind == "stage") {
    StagePtr stage = registry_->stage(uid);
    if (!stage) return false;
    const StageState from_s = stage_state_from_string(from);
    const StageState to_s = stage_state_from_string(to);
    if (stage->state() != from_s || !is_valid_transition(from_s, to_s)) {
      ENTK_WARN("synchronizer")
          << component << ": invalid stage transition " << from << "->" << to
          << " for " << uid;
      return false;
    }
    stage->set_state(to_s);
  } else if (kind == "pipeline") {
    PipelinePtr pipeline = registry_->pipeline(uid);
    if (!pipeline) return false;
    const PipelineState from_s = pipeline_state_from_string(from);
    const PipelineState to_s = pipeline_state_from_string(to);
    if (pipeline->state() != from_s || !is_valid_transition(from_s, to_s)) {
      ENTK_WARN("synchronizer")
          << component << ": invalid pipeline transition " << from << "->"
          << to << " for " << uid;
      return false;
    }
    pipeline->set_state(to_s);
  } else {
    return false;
  }

  store_->commit(uid, kind, from, to, component);
  profiler_->record("synchronizer", "state_commit", uid);
  return true;
}

}  // namespace entk
