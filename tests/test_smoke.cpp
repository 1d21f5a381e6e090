// End-to-end smoke tests: the full EnTK stack (AppManager -> WFProcessor ->
// ExecManager -> PilotRts -> Agent on a simulated CI) executing small PST
// applications.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>

#include "src/core/app_manager.hpp"

namespace entk {
namespace {

TaskPtr make_sleep_task(double duration_s) {
  auto t = std::make_shared<Task>("sleep");
  t->executable = "/bin/sleep";
  t->duration_s = duration_s;
  return t;
}

PipelinePtr make_pipeline(int stages, int tasks_per_stage, double duration_s) {
  auto p = std::make_shared<Pipeline>("p");
  for (int s = 0; s < stages; ++s) {
    auto stage = std::make_shared<Stage>("s" + std::to_string(s));
    for (int t = 0; t < tasks_per_stage; ++t) {
      stage->add_task(make_sleep_task(duration_s));
    }
    p->add_stage(stage);
  }
  return p;
}

AppManagerConfig fast_config() {
  AppManagerConfig cfg;
  cfg.resource.resource = "local.localhost";
  cfg.resource.cpus = 16;
  cfg.resource.agent.env_setup_s = 0.1;
  cfg.resource.agent.dispatch_rate_per_s = 1000;
  cfg.resource.rts_teardown_base_s = 0.01;
  cfg.resource.rts_teardown_per_unit_s = 0.0;
  cfg.clock_scale = 1e-4;  // 1 virtual second = 0.1 ms
  return cfg;
}

TEST(Smoke, SingleTaskCompletes) {
  AppManager amgr(fast_config());
  amgr.add_pipelines({make_pipeline(1, 1, 5.0)});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(amgr.tasks_failed(), 0u);
  EXPECT_EQ(amgr.pipelines()[0]->state(), PipelineState::Done);
}

TEST(Smoke, ConcurrentTasksInOneStage) {
  AppManager amgr(fast_config());
  amgr.add_pipelines({make_pipeline(1, 12, 10.0)});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 12u);
  const OverheadReport r = amgr.overheads();
  // 12 concurrent 10 s tasks on 16 cores: span ~ 10 s + env, not ~120 s.
  EXPECT_LT(r.task_exec_s, 30.0);
  EXPECT_GT(r.task_exec_s, 9.0);
}

TEST(Smoke, SequentialStages) {
  AppManager amgr(fast_config());
  amgr.add_pipelines({make_pipeline(4, 1, 5.0)});
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 4u);
  // 4 sequential 5 s stages: span >= 20 s.
  EXPECT_GE(amgr.overheads().task_exec_s, 20.0);
}

TEST(Smoke, MultiplePipelinesRunConcurrently) {
  AppManager amgr(fast_config());
  std::vector<PipelinePtr> pipelines;
  for (int i = 0; i < 4; ++i) pipelines.push_back(make_pipeline(1, 2, 10.0));
  amgr.add_pipelines(std::move(pipelines));
  amgr.run();
  EXPECT_EQ(amgr.tasks_done(), 8u);
  for (const PipelinePtr& p : amgr.pipelines()) {
    EXPECT_EQ(p->state(), PipelineState::Done);
  }
  // Full serialization of 8 x 10 v-s tasks would span 80 v-s; any bound
  // well below that proves overlap. 50 (not lower) because the span is
  // virtual time and inflates with scheduler latency under parallel ctest.
  EXPECT_LT(amgr.overheads().task_exec_s, 50.0);
}

TEST(Smoke, CallableTaskRunsAndReturnsResult) {
  std::atomic<int> calls{0};
  AppManagerConfig cfg = fast_config();
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("compute");
  task->function = [&calls] {
    ++calls;
    return 0;
  };
  task->duration_s = 1.0;
  stage->add_task(task);
  p->add_stage(stage);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(task->exit_code(), 0);
}

TEST(Smoke, FailingTaskWithoutRetriesFailsPipeline) {
  AppManagerConfig cfg = fast_config();
  cfg.task_retry_limit = 0;
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("bad");
  task->function = [] { return 3; };
  task->duration_s = 0.5;
  stage->add_task(task);
  p->add_stage(stage);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(amgr.tasks_failed(), 1u);
  EXPECT_EQ(p->state(), PipelineState::Failed);
  EXPECT_EQ(task->exit_code(), 3);
}

TEST(Smoke, FailingTaskIsResubmittedUntilSuccess) {
  AppManagerConfig cfg = fast_config();
  cfg.task_retry_limit = 5;
  AppManager amgr(cfg);
  auto p = std::make_shared<Pipeline>("p");
  auto stage = std::make_shared<Stage>("s");
  auto task = std::make_shared<Task>("flaky");
  auto counter = std::make_shared<std::atomic<int>>(0);
  task->function = [counter] { return ++*counter < 3 ? 1 : 0; };
  task->duration_s = 0.5;
  stage->add_task(task);
  p->add_stage(stage);
  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(counter->load(), 3);
  EXPECT_EQ(amgr.tasks_done(), 1u);
  EXPECT_EQ(amgr.resubmissions(), 2u);
  EXPECT_EQ(p->state(), PipelineState::Done);
}

TEST(Smoke, PostExecHookExtendsPipeline) {
  AppManager amgr(fast_config());
  auto p = std::make_shared<Pipeline>("adaptive");
  auto counter = std::make_shared<std::atomic<int>>(0);

  // Each stage appends another stage until three have run: the paper's
  // adaptive pattern (iteration count unknown before execution).
  std::function<StagePtr()> make_stage = [&]() {
    auto stage = std::make_shared<Stage>("iter");
    auto task = std::make_shared<Task>("work");
    task->function = [counter] {
      ++*counter;
      return 0;
    };
    task->duration_s = 0.5;
    stage->add_task(task);
    return stage;
  };
  // Capture by value in the hook: hooks run on the WFProcessor thread.
  // The pipeline owns each stage and so its hook: the hook reaches the
  // pipeline and itself through weak_ptr, or the cycle would leak them.
  std::shared_ptr<std::function<void()>> extend =
      std::make_shared<std::function<void()>>();
  std::weak_ptr<Pipeline> weak_p = p;
  std::weak_ptr<std::function<void()>> weak_extend = extend;
  *extend = [weak_p, counter, make_stage, weak_extend] {
    const PipelinePtr pipeline = weak_p.lock();
    const auto self = weak_extend.lock();
    if (!pipeline || !self) return;
    if (counter->load() < 3) {
      StagePtr next = make_stage();
      next->post_exec = *self;
      pipeline->add_stage(next);
    }
  };
  StagePtr first = make_stage();
  first->post_exec = *extend;
  p->add_stage(first);

  amgr.add_pipelines({p});
  amgr.run();
  EXPECT_EQ(counter->load(), 3);
  EXPECT_EQ(amgr.tasks_done(), 3u);
  EXPECT_EQ(p->stage_count(), 3u);
}

TEST(Smoke, StateJournalRecordsAllTransitions) {
  AppManagerConfig cfg = fast_config();
  // Fresh directory per run: journals append, and AppManager uids repeat
  // across processes.
  const std::string dir = ::testing::TempDir() + "/entk_journal_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(wall_now_us());
  std::filesystem::create_directories(dir);
  cfg.journal_dir = dir;
  AppManager amgr(cfg);
  amgr.add_pipelines({make_pipeline(1, 2, 1.0)});
  amgr.run();
  StateStore* store = amgr.state_store();
  ASSERT_NE(store, nullptr);
  // 2 tasks x 6 transitions + stage x 3 + pipeline x 2.
  EXPECT_GE(store->transaction_count(), 2u * 6u + 3u + 2u);
  // Recovery from the journal reproduces the final states.
  StateStore recovered;
  recovered.recover(store->journal_path());
  EXPECT_EQ(recovered.transaction_count(), store->transaction_count());
  EXPECT_EQ(recovered.state_of(amgr.pipelines()[0]->uid()), "DONE");
}

}  // namespace
}  // namespace entk
