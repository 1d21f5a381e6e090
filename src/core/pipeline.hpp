// Pipeline: a list of stages where stage i executes only after stage i-1
// has resolved (paper §II-B-1). All pipelines of an application execute
// concurrently.
//
// Pipelines support runtime extension (add_stage while executing) under an
// internal lock, enabling adaptive applications whose stage count is not
// known before execution — the paper's AUA use case iterates "until the
// available resources are exhausted or the prediction error is below a
// given threshold".
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/states.hpp"
#include "src/core/stage.hpp"

namespace entk {

class Pipeline {
 public:
  Pipeline();
  explicit Pipeline(std::string name);

  std::string name;

  /// Append a stage. Legal while Described and, for adaptive workflows,
  /// while Scheduling (typically from a stage post_exec hook); illegal
  /// once the pipeline reached a final state.
  void add_stage(StagePtr stage);

  const std::string& uid() const { return uid_; }
  PipelineState state() const {
    return state_.load(std::memory_order_acquire);
  }

  /// Snapshot accessors (thread-safe).
  std::size_t stage_count() const;
  StagePtr stage_at(std::size_t index) const;
  std::vector<StagePtr> stages() const;
  std::size_t current_stage_index() const;
  StagePtr current_stage() const;  ///< nullptr when exhausted

  /// Total tasks across current stages (snapshot).
  std::size_t task_count() const;

  void validate() const;
  json::Value to_json() const;

  /// Reset the pipeline (and its stages and tasks) to Described for a new
  /// execution attempt, preserving uids — the second half of the paper's
  /// restart semantics: re-run the same description, and let the
  /// AppManager's resume_journal skip what already completed.
  void reset_for_resume();

  // --- adaptive hold (ensemble::Controller) -------------------------------
  // A held-open pipeline is not marked DONE when its stages are exhausted:
  // it idles in Scheduling so an asynchronous controller can keep appending
  // stages (the generator loop). release_hold() lets the WFProcessor
  // complete it on the next rescan.
  void hold_open() { held_open_ = true; }
  void release_hold() { held_open_ = false; }
  bool held_open() const { return held_open_.load(); }

  // Internal (WFProcessor/Synchronizer).
  // Release/acquire like Task::set_state.
  void set_state(PipelineState s) {
    state_.store(s, std::memory_order_release);
  }
  /// Move to the next stage; returns the new current stage or nullptr when
  /// the pipeline is exhausted.
  StagePtr advance();
  /// Idempotent advance: moves past `done` only if it is still the current
  /// stage, then returns the (possibly unchanged) current stage. Two threads
  /// can observe the same stage DONE — the dequeue thread finishing it and
  /// the enqueue rescan's crash-recovery branch — and both call this; only
  /// one increments, so a stage appended concurrently by an adaptive
  /// controller is never skipped.
  StagePtr advance_past(const StagePtr& done);
  /// One-shot guard for the SCHEDULING->DONE transition: the first caller
  /// (dequeue finishing the last stage, or the enqueue rescan after a
  /// release_hold) wins; everyone else backs off.
  bool begin_completion() { return !completing_.exchange(true); }

 private:
  std::string uid_;
  std::atomic<PipelineState> state_{PipelineState::Described};
  mutable std::mutex mutex_;
  std::vector<StagePtr> stages_;
  std::size_t current_ = 0;
  std::atomic<bool> held_open_{false};
  std::atomic<bool> completing_{false};
};

using PipelinePtr = std::shared_ptr<Pipeline>;

}  // namespace entk
