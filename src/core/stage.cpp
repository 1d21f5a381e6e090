#include "src/core/stage.hpp"

#include "src/common/error.hpp"
#include "src/common/ids.hpp"

namespace entk {

Stage::Stage() : uid_(generate_uid("stage")) {}

Stage::Stage(std::string stage_name) : Stage() { name = std::move(stage_name); }

void Stage::add_task(TaskPtr task) {
  if (!task) throw ValueError("stage " + uid_, "task", "non-null task");
  tasks_.push_back(std::move(task));
}

void Stage::validate() const {
  if (tasks_.empty()) {
    throw MissingError("stage " + uid_, "tasks");
  }
  for (const TaskPtr& t : tasks_) t->validate();
}

void Stage::set_parent(const std::string& pipeline) {
  parent_pipeline_ = pipeline;
  for (const TaskPtr& t : tasks_) t->set_parents(pipeline, uid_);
}

json::Value Stage::to_json() const {
  json::Value v;
  v["uid"] = uid_;
  v["name"] = name;
  v["state"] = to_string(state());
  v["parent_pipeline"] = parent_pipeline_;
  json::Value tasks = json::Array{};
  for (const TaskPtr& t : tasks_) tasks.push_back(t->to_json());
  v["tasks"] = std::move(tasks);
  return v;
}

}  // namespace entk
