#include "src/core/task.hpp"

#include "src/common/error.hpp"
#include "src/common/ids.hpp"

namespace entk {

Task::Task() : uid_(generate_uid("task")) {}

Task::Task(std::string task_name) : Task() { name = std::move(task_name); }

void Task::validate() const {
  if (executable.empty() && !function && duration_s <= 0.0) {
    throw MissingError("task " + uid_, "executable, function or duration_s");
  }
  if (cpu_reqs.processes <= 0 || cpu_reqs.threads_per_process <= 0) {
    throw ValueError("task " + uid_, "cpu_reqs", "positive process/thread counts");
  }
  if (gpu_reqs.processes < 0) {
    throw ValueError("task " + uid_, "gpu_reqs", "non-negative process count");
  }
  if (duration_s < 0.0) {
    throw ValueError("task " + uid_, "duration_s", "non-negative duration");
  }
  if (retry_limit < -1) {
    throw ValueError("task " + uid_, "retry_limit", ">= -1");
  }
  for (const auto& d : input_staging) {
    if (d.action != saga::StagingAction::Link && d.bytes == 0 &&
        d.source.empty()) {
      throw ValueError("task " + uid_, "input_staging",
                       "a source or a size for copy/transfer directives");
    }
  }
}

json::Value Task::to_json() const {
  json::Value v;
  v["uid"] = uid_;
  v["name"] = name;
  v["state"] = to_string(state());
  v["executable"] = executable;
  json::Value args = json::Array{};
  for (const std::string& a : arguments) args.push_back(a);
  v["arguments"] = std::move(args);
  v["cpu_processes"] = cpu_reqs.processes;
  v["cpu_threads"] = cpu_reqs.threads_per_process;
  v["gpu_processes"] = gpu_reqs.processes;
  v["exclusive_nodes"] = exclusive_nodes;
  v["duration_s"] = duration_s;
  v["has_function"] = static_cast<bool>(function);
  v["retry_limit"] = retry_limit;
  v["attempts"] = attempts_;
  v["exit_code"] = exit_code_;
  v["parent_stage"] = parent_stage_;
  v["parent_pipeline"] = parent_pipeline_;
  v["metadata"] = metadata;
  return v;
}

rts::TaskUnit to_unit(const Task& task) {
  rts::TaskUnit unit;
  unit.uid = task.uid();
  unit.name = task.name;
  unit.executable = task.executable;
  unit.arguments = task.arguments;
  unit.cores = task.cpu_reqs.total();
  unit.gpus = task.gpu_reqs.total();
  unit.exclusive_nodes = task.exclusive_nodes;
  unit.duration_s = task.duration_s;
  unit.callable = task.function;
  unit.input_staging = task.input_staging;
  unit.output_staging = task.output_staging;
  unit.metadata = task.metadata;
  return unit;
}

}  // namespace entk
