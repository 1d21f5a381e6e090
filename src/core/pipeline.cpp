#include "src/core/pipeline.hpp"

#include "src/common/error.hpp"
#include "src/common/ids.hpp"

namespace entk {

Pipeline::Pipeline() : uid_(generate_uid("pipeline")) {}

Pipeline::Pipeline(std::string pipeline_name) : Pipeline() {
  name = std::move(pipeline_name);
}

void Pipeline::add_stage(StagePtr stage) {
  if (!stage) throw ValueError("pipeline " + uid_, "stage", "non-null stage");
  if (is_final(state())) {
    throw StateError("pipeline " + uid_ +
                     ": cannot add stages to a finished pipeline");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  stage->set_parent(uid_);
  stages_.push_back(std::move(stage));
}

std::size_t Pipeline::stage_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_.size();
}

StagePtr Pipeline::stage_at(std::size_t index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (index >= stages_.size()) return nullptr;
  return stages_[index];
}

std::vector<StagePtr> Pipeline::stages() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stages_;
}

std::size_t Pipeline::current_stage_index() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

StagePtr Pipeline::current_stage() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_ >= stages_.size()) return nullptr;
  return stages_[current_];
}

std::size_t Pipeline::task_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const StagePtr& s : stages_) n += s->task_count();
  return n;
}

void Pipeline::validate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (stages_.empty()) throw MissingError("pipeline " + uid_, "stages");
  for (const StagePtr& s : stages_) s->validate();
}

StagePtr Pipeline::advance() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++current_;
  if (current_ >= stages_.size()) return nullptr;
  return stages_[current_];
}

StagePtr Pipeline::advance_past(const StagePtr& done) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (current_ < stages_.size() && stages_[current_] == done) ++current_;
  if (current_ >= stages_.size()) return nullptr;
  return stages_[current_];
}

void Pipeline::reset_for_resume() {
  std::lock_guard<std::mutex> lock(mutex_);
  set_state(PipelineState::Described);
  current_ = 0;
  completing_ = false;
  for (const StagePtr& stage : stages_) {
    stage->set_state(StageState::Described);
    for (const TaskPtr& task : stage->tasks()) {
      task->set_state(TaskState::Described);
    }
  }
}

json::Value Pipeline::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value v;
  v["uid"] = uid_;
  v["name"] = name;
  v["state"] = to_string(state());
  v["current_stage"] = current_;
  json::Value stages = json::Array{};
  for (const StagePtr& s : stages_) stages.push_back(s->to_json());
  v["stages"] = std::move(stages);
  return v;
}

}  // namespace entk
