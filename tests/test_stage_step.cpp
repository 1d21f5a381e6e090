// Stage-step latency gate. In a chain of one-task stages every step waits
// for the previous task's DONE to reach the WFProcessor, so the step time
// is the latency of one trip Enqueue -> Emgr -> RTS -> Done -> Dequeue.
// That path is event-driven end to end and a step costs tens of
// microseconds; a timer anywhere on it (such as a completion flush window)
// makes each step last at least one tick of that timer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/core/app_manager.hpp"

namespace entk {
namespace {

/// Completes every unit inside submit(), on the caller's thread.
class InlineNoopRts final : public rts::Rts {
 public:
  void initialize() override {}
  void set_completion_callback(
      std::function<void(const rts::UnitResult&)> callback) override {
    callback_ = std::move(callback);
  }
  void submit(std::vector<rts::TaskUnit> units) override {
    for (const rts::TaskUnit& unit : units) {
      rts::UnitResult result;
      result.uid = unit.uid;
      result.outcome = rts::UnitOutcome::Done;
      callback_(result);
    }
  }
  bool is_healthy() const override { return true; }
  void terminate() override {}
  void kill() override {}
  rts::RtsStats stats() const override { return {}; }
  std::vector<std::string> in_flight_units() const override { return {}; }

 private:
  std::function<void(const rts::UnitResult&)> callback_;
};

/// Wall milliseconds between consecutive stage schedules of one
/// 1 x `stages` x 1 pipeline, one entry per step.
std::vector<double> stage_steps_ms(int stages) {
  AppManagerConfig cfg;
  cfg.resource.resource = "local";
  cfg.resource.cpus = 4;
  cfg.resource.walltime_s = 3600;
  cfg.task_batch_size = 64;
  cfg.rts_factory = [] { return std::make_shared<InlineNoopRts>(); };
  AppManager amgr(cfg);
  auto pipeline = std::make_shared<Pipeline>("chain");
  for (int s = 0; s < stages; ++s) {
    auto stage = std::make_shared<Stage>("s" + std::to_string(s));
    auto task = std::make_shared<Task>("t");
    task->executable = "/bin/true";  // never run: the RTS is a no-op
    stage->add_task(task);
    pipeline->add_stage(stage);
  }
  amgr.add_pipelines({pipeline});
  amgr.run();
  EXPECT_EQ(pipeline->state(), PipelineState::Done);
  EXPECT_EQ(amgr.tasks_done(), static_cast<std::size_t>(stages));
  std::vector<double> steps;
  std::int64_t prev = -1;
  for (const ProfileEvent& e : amgr.profiler()->events()) {
    if (e.event != "stage_schedule_start") continue;
    if (prev >= 0) steps.push_back(1e-3 * static_cast<double>(e.wall_us - prev));
    prev = e.wall_us;
  }
  EXPECT_EQ(steps.size(), static_cast<std::size_t>(stages - 1));
  return steps;
}

TEST(StageStep, StepStaysWellUnderOneTimerTick) {
  // The gate is the median step of a run, and the median of three runs.
  // A timer on the path sets every step, so it moves the median as much as
  // the mean; a scheduler stall hits one step, and a single 50 ms stall
  // adds 0.25 ms to a 199-step mean. The bound sits ~4-7x from both sides:
  // the old 2 ms completion window forced >= 2 ms per step, and a step
  // measures 0.07-0.15 ms on a 4-vCPU VM (the upper end in a full ctest
  // run, where the mean reached 0.67 ms from stalls alone).
  std::vector<double> medians;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<double> steps = stage_steps_ms(200);
    if (steps.empty()) return;
    double sum = 0.0;
    for (double s : steps) sum += s;
    std::sort(steps.begin(), steps.end());
    medians.push_back(steps[steps.size() / 2]);
    std::printf("rep %d: stage step p50 %.3f ms, p90 %.3f, max %.3f, "
                "mean %.3f\n",
                rep, medians.back(), steps[steps.size() * 9 / 10],
                steps.back(), sum / static_cast<double>(steps.size()));
  }
  std::sort(medians.begin(), medians.end());
  EXPECT_LT(medians[1], 0.5) << "median stage step " << medians[1] << " ms";
}

}  // namespace
}  // namespace entk
