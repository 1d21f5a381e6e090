// Task: the unit abstraction of the PST application model (paper §II-B-1).
//
// A task is a stand-alone process with well-defined input, output,
// termination criteria and dedicated resources: an executable, its software
// environment (arguments, resource requirements) and its data dependences
// (staging directives). Tasks carry either a modeled duration (simulated
// executables such as sleep / Gromacs mdrun / Specfem), a real callable
// (workloads computing actual results), or both.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/states.hpp"
#include "src/json/json.hpp"
#include "src/rts/unit.hpp"
#include "src/saga/stager.hpp"

namespace entk {

/// CPU requirements, RP-style: processes x threads-per-process cores.
struct CpuReqs {
  int processes = 1;
  int threads_per_process = 1;
  int total() const { return processes * threads_per_process; }
};

struct GpuReqs {
  int processes = 0;
  int total() const { return processes; }
};

class Task {
 public:
  Task();
  explicit Task(std::string name);

  // --- user-facing description ------------------------------------------
  std::string name;
  std::string executable;
  std::vector<std::string> arguments;

  CpuReqs cpu_reqs;
  GpuReqs gpu_reqs;
  /// Request whole nodes (e.g. the 384-node Specfem forward simulations).
  bool exclusive_nodes = false;

  /// Modeled execution duration in virtual seconds (e.g. "sleep 100").
  double duration_s = 0.0;

  /// Optional real work executed by the RTS; return value = exit code.
  std::function<int()> function;

  std::vector<saga::StagingDirective> input_staging;
  std::vector<saga::StagingDirective> output_staging;

  /// Maximum automatic resubmissions after failure; -1 = use the
  /// AppManager-wide default.
  int retry_limit = -1;

  json::Value metadata;  ///< user payload, echoed into results

  // --- runtime state (managed by the toolkit) ----------------------------
  const std::string& uid() const { return uid_; }
  TaskState state() const { return state_.load(std::memory_order_acquire); }
  int exit_code() const { return exit_code_; }
  int attempts() const { return attempts_; }
  const std::string& parent_stage() const { return parent_stage_; }
  const std::string& parent_pipeline() const { return parent_pipeline_; }

  /// Throws ValueError/MissingError when the description is inconsistent
  /// (no executable nor function, non-positive resources, ...).
  void validate() const;

  json::Value to_json() const;

  // Internal setters used by the toolkit (Synchronizer, WFProcessor).
  // State is read lock-free by every component thread (Enqueue, Dequeue,
  // the controller) while the Synchronizer writes it: release/acquire so a
  // reader that sees a state also sees what was written before it.
  void set_state(TaskState s) { state_.store(s, std::memory_order_release); }
  void set_exit_code(int c) { exit_code_ = c; }
  void bump_attempts() { ++attempts_; }
  void set_parents(std::string pipeline, std::string stage) {
    parent_pipeline_ = std::move(pipeline);
    parent_stage_ = std::move(stage);
  }

 private:
  std::string uid_;
  std::atomic<TaskState> state_{TaskState::Described};
  int exit_code_ = -1;
  int attempts_ = 0;
  std::string parent_stage_;
  std::string parent_pipeline_;
};

using TaskPtr = std::shared_ptr<Task>;

/// Translate a Task into an RTS-specific unit (paper §II-B-3). Shared by
/// the embedded ExecManager's registry resolver and the WFProcessor's
/// inline-units enqueue path (remote-worker mode).
rts::TaskUnit to_unit(const Task& task);

}  // namespace entk
