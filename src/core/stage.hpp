// Stage: a set of tasks without mutual dependences that can execute
// concurrently (paper §II-B-1).
//
// A stage may carry a post-execution hook, invoked by the WFProcessor when
// the stage resolves. The hook is how applications express branches and
// adaptivity without altering the PST semantics (paper §II-B-1: "branching
// events can be specified as tasks where a decision is made about the
// runtime flow") — e.g. the AUA use case appends further compute/error
// stages to its pipeline until the prediction error drops below threshold.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/states.hpp"
#include "src/core/task.hpp"

namespace entk {

class Stage {
 public:
  Stage();
  explicit Stage(std::string name);

  std::string name;

  /// Invoked (on the workflow-processor thread) when every task of the
  /// stage has resolved successfully. May add stages to the parent
  /// pipeline; must not block for long. The pipeline owns this stage and
  /// so this hook: a hook must not own its pipeline (or its own stage) —
  /// capture them through std::weak_ptr, or the cycle leaks all three.
  std::function<void()> post_exec;

  void add_task(TaskPtr task);
  const std::vector<TaskPtr>& tasks() const { return tasks_; }
  std::size_t task_count() const { return tasks_.size(); }

  const std::string& uid() const { return uid_; }
  StageState state() const { return state_.load(std::memory_order_acquire); }
  const std::string& parent_pipeline() const { return parent_pipeline_; }

  /// Throws when empty or when any task description is invalid.
  void validate() const;

  json::Value to_json() const;

  // Internal.
  // Release/acquire like Task::set_state.
  void set_state(StageState s) { state_.store(s, std::memory_order_release); }
  void set_parent(const std::string& pipeline);

 private:
  std::string uid_;
  std::atomic<StageState> state_{StageState::Described};
  std::string parent_pipeline_;
  std::vector<TaskPtr> tasks_;
};

using StagePtr = std::shared_ptr<Stage>;

}  // namespace entk
