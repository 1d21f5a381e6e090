// Direct component tests of the WFProcessor: Enqueue/Dequeue driven
// through raw broker queues, without an RTS — the component's contract in
// isolation (paper Fig 2, messages 1 and 5).
#include <gtest/gtest.h>

#include <cstdio>
#include <thread>

#include "src/common/clock.hpp"
#include "src/core/state_store.hpp"
#include "src/core/wfprocessor.hpp"

namespace entk {
namespace {

/// Fixture wiring a WFProcessor to a broker plus a live Synchronizer, with
/// the test driving the Pending (out) and Done (in) queues by hand.
class WfpFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    broker_ = std::make_shared<mq::Broker>("wfp_test");
    broker_->declare_queue("q.pending");
    broker_->declare_queue("q.completed");
    broker_->declare_queue("q.states");
    profiler_ = std::make_shared<Profiler>();
    synchronizer_ = std::make_unique<Synchronizer>(
        broker_, "q.states", &registry_, &store_, profiler_);
    synchronizer_->start();
  }

  void TearDown() override {
    if (wfp_) wfp_->stop();
    synchronizer_->stop();
    broker_->close();
  }

  void start_wfp(WfConfig cfg = {}) {
    wfp_ = std::make_unique<WFProcessor>(cfg, broker_, &registry_,
                                         "q.pending", "q.completed",
                                         "q.states", profiler_);
    wfp_->start();
  }

  PipelinePtr make_app(int stages, int tasks) {
    auto pipeline = std::make_shared<Pipeline>("p");
    for (int s = 0; s < stages; ++s) {
      auto stage = std::make_shared<Stage>("s" + std::to_string(s));
      for (int t = 0; t < tasks; ++t) {
        auto task = std::make_shared<Task>("t");
        task->duration_s = 1.0;
        stage->add_task(task);
      }
      pipeline->add_stage(stage);
    }
    registry_.add_pipeline(pipeline);
    return pipeline;
  }

  /// Pop one pending-task uid (waits up to a second). Pending messages
  /// carry {"uids": [...]}; at the default batch size, one uid each.
  std::string pop_pending() {
    auto d = broker_->get("q.pending", 1.0);
    if (!d) return "";
    broker_->ack("q.pending", d->delivery_tag);
    const json::Array& uids = d->message.payload()->at("uids").as_array();
    EXPECT_EQ(uids.size(), 1u);
    return uids.empty() ? "" : uids.front().as_string();
  }

  /// Publish one completion record as a {"results": [...]} Done message.
  void publish_result(json::Value result) {
    json::Value msg;
    msg["results"] = json::Array{std::move(result)};
    broker_->publish("q.completed",
                     mq::Message::json_body("q.completed", std::move(msg)));
  }

  /// Simulate the ExecManager+RTS side for one task: advance its states
  /// and push a completion message.
  void complete(const std::string& uid, const std::string& outcome,
                int exit_code = 0) {
    SyncClient sync(broker_, "fake_emgr", "q.states", "q.ack.fake");
    sync.sync(uid, "task", "SCHEDULED", "SUBMITTING", true);
    sync.sync(uid, "task", "SUBMITTING", "SUBMITTED", true);
    json::Value result;
    result["uid"] = uid;
    result["outcome"] = outcome;
    result["exit_code"] = exit_code;
    publish_result(std::move(result));
  }

  mq::BrokerPtr broker_;
  ObjectRegistry registry_;
  StateStore store_;
  ProfilerPtr profiler_;
  std::unique_ptr<Synchronizer> synchronizer_;
  std::unique_ptr<WFProcessor> wfp_;
};

TEST_F(WfpFixture, EnqueuePublishesAllTasksOfFirstStage) {
  PipelinePtr app = make_app(2, 3);
  start_wfp();
  std::set<std::string> uids;
  for (int i = 0; i < 3; ++i) {
    const std::string uid = pop_pending();
    EXPECT_FALSE(uid.empty());
    uids.insert(uid);
  }
  EXPECT_EQ(uids.size(), 3u);
  // Second stage must NOT be enqueued yet.
  EXPECT_TRUE(pop_pending().empty());
  EXPECT_EQ(app->stage_at(0)->state(), StageState::Scheduled);
  EXPECT_EQ(app->stage_at(1)->state(), StageState::Described);
  for (const TaskPtr& t : app->stage_at(0)->tasks()) {
    EXPECT_EQ(t->state(), TaskState::Scheduled);
  }
}

TEST_F(WfpFixture, CompletionsAdvanceStagesAndPipeline) {
  PipelinePtr app = make_app(2, 2);
  start_wfp();
  for (int i = 0; i < 2; ++i) complete(pop_pending(), "DONE");
  // Stage 2's tasks become pending only after stage 1 resolved.
  for (int i = 0; i < 2; ++i) {
    const std::string uid = pop_pending();
    ASSERT_FALSE(uid.empty());
    complete(uid, "DONE");
  }
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->tasks_done(), 4u);
}

TEST_F(WfpFixture, FailureWithoutBudgetFailsPipeline) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  complete(pop_pending(), "FAILED", 7);
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Failed);
  EXPECT_EQ(wfp_->tasks_failed(), 1u);
  EXPECT_EQ(app->stage_at(0)->tasks()[0]->exit_code(), 7);
}

TEST_F(WfpFixture, FailureWithBudgetReenqueues) {
  WfConfig cfg;
  cfg.default_task_retry_limit = 1;
  PipelinePtr app = make_app(1, 1);
  start_wfp(cfg);
  const std::string uid = pop_pending();
  complete(uid, "FAILED", 1);
  // The task comes back through the Pending queue.
  const std::string retry_uid = pop_pending();
  EXPECT_EQ(retry_uid, uid);
  complete(retry_uid, "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->resubmissions(), 1u);
}

TEST_F(WfpFixture, UnknownResultIsIgnored) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  json::Value bogus;
  bogus["uid"] = "task.99999x";
  bogus["outcome"] = "DONE";
  publish_result(std::move(bogus));
  // The real task still completes normally afterward.
  complete(pop_pending(), "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
}

TEST_F(WfpFixture, MalformedDoneMessageIsSkipped) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  mq::Message junk;
  junk.set_body("{this is not json");
  broker_->publish("q.completed", std::move(junk));
  complete(pop_pending(), "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
}

TEST_F(WfpFixture, AbortFailsAllLivePipelines) {
  PipelinePtr app = make_app(1, 2);
  start_wfp();
  pop_pending();
  pop_pending();
  wfp_->abort("test abort");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Failed);
}

TEST_F(WfpFixture, BatchedEnqueueShipsBulkPendingAndCoalescedResults) {
  WfConfig cfg;
  cfg.batch_size = 16;
  PipelinePtr app = make_app(1, 16);
  start_wfp(cfg);

  // The whole stage travels as one bulk message: {"uids": [...]}.
  auto d = broker_->get("q.pending", 1.0);
  ASSERT_TRUE(d);
  broker_->ack("q.pending", d->delivery_tag);
  const json::Value msg = *d->message.payload();
  ASSERT_TRUE(msg.contains("uids"));
  std::vector<std::string> uids;
  for (const json::Value& u : msg.at("uids").as_array()) {
    uids.push_back(u.as_string());
  }
  ASSERT_EQ(uids.size(), 16u);
  EXPECT_FALSE(broker_->get("q.pending", 0.0).has_value());
  for (const TaskPtr& t : app->stage_at(0)->tasks()) {
    EXPECT_EQ(t->state(), TaskState::Scheduled);
  }

  // Emgr side: one vectored sync per transition kind, then a single
  // coalesced completion message covering all 16 tasks.
  SyncClient sync(broker_, "fake_emgr", "q.states", "q.ack.fake");
  std::vector<Transition> submitting, submitted;
  for (const std::string& uid : uids) {
    submitting.push_back({uid, "task", "SCHEDULED", "SUBMITTING"});
    submitted.push_back({uid, "task", "SUBMITTING", "SUBMITTED"});
  }
  EXPECT_TRUE(sync.sync_batch(submitting, true));
  EXPECT_TRUE(sync.sync_batch(submitted, true));
  json::Array results;
  for (const std::string& uid : uids) {
    json::Value r;
    r["uid"] = uid;
    r["outcome"] = "DONE";
    r["exit_code"] = 0;
    results.push_back(std::move(r));
  }
  json::Value done;
  done["results"] = std::move(results);
  broker_->publish("q.completed", mq::Message::json_body("q.completed", done));

  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->tasks_done(), 16u);
  // Per-task journal entries are identical to the per-task path: every
  // task still records all six transitions individually.
  for (const std::string& uid : uids) {
    int transitions = 0;
    for (const StateTransaction& t : store_.history()) {
      if (t.uid == uid) ++transitions;
    }
    EXPECT_EQ(transitions, 6);
    EXPECT_EQ(store_.state_of(uid), "DONE");
  }
}

/// Commits of `from -> to` for `uid` in the state store's history.
int commits(const StateStore& store, const std::string& uid,
            const std::string& from, const std::string& to) {
  int n = 0;
  for (const StateTransaction& t : store.history()) {
    if (t.uid == uid && t.from_state == from && t.to_state == to) ++n;
  }
  return n;
}

/// Each stage of `app` was scheduled exactly once, and every sync the run
/// sent was accepted.
void expect_scheduled_once(const StateStore& store, const PipelinePtr& app,
                           const Synchronizer& synchronizer) {
  for (const StagePtr& stage : app->stages()) {
    EXPECT_EQ(commits(store, stage->uid(), "DESCRIBED", "SCHEDULING"), 1)
        << stage->name;
    EXPECT_EQ(commits(store, stage->uid(), "SCHEDULING", "SCHEDULED"), 1)
        << stage->name;
    EXPECT_EQ(commits(store, stage->uid(), "SCHEDULED", "DONE"), 1)
        << stage->name;
  }
  EXPECT_EQ(synchronizer.rejected(), 0u);
}

TEST_F(WfpFixture, FullyRecoveredStageIsScheduledExactlyOnce) {
  // Stage 0 completed in a previous attempt. Recover it from that
  // attempt's state journal the way AppManager's resume_journal does.
  PipelinePtr app = make_app(2, 2);
  const std::string journal = ::testing::TempDir() + "/wfp_resume_" +
                              std::to_string(wall_now_us()) + ".journal";
  {
    StateStore previous(journal);
    for (const TaskPtr& t : app->stage_at(0)->tasks()) {
      previous.commit(t->uid(), "task", "EXECUTED", "DONE", "previous");
    }
    previous.flush();
  }
  StateStore previous;
  previous.recover(journal);
  std::remove(journal.c_str());
  WfConfig cfg;
  for (const TaskPtr& t : app->stage_at(0)->tasks()) {
    ASSERT_EQ(previous.state_of(t->uid()), "DONE");
    t->set_state(TaskState::Done);
    cfg.recovered_done.insert(t->uid());
    store_.commit(t->uid(), "task", "DESCRIBED", "DONE", "recovery");
  }
  start_wfp(cfg);

  // Only stage 1 reaches the Pending queue.
  std::set<std::string> stage1;
  for (const TaskPtr& t : app->stage_at(1)->tasks()) stage1.insert(t->uid());
  for (int i = 0; i < 2; ++i) {
    const std::string uid = pop_pending();
    EXPECT_EQ(stage1.count(uid), 1u) << uid;
    complete(uid, "DONE");
  }
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(wfp_->tasks_recovered(), 2u);
  expect_scheduled_once(store_, app, *synchronizer_);
}

TEST_F(WfpFixture, FullyCanceledStageIsScheduledExactlyOnce) {
  PipelinePtr app = make_app(2, 2);
  start_wfp();
  // Stage 0 is in flight; cancel every task of stage 1 before it is
  // scheduled.
  const std::string a = pop_pending();
  const std::string b = pop_pending();
  std::vector<std::string> later;
  for (const TaskPtr& t : app->stage_at(1)->tasks()) later.push_back(t->uid());
  EXPECT_EQ(wfp_->cancel_tasks(later), 2u);
  EXPECT_EQ(app->stage_at(1)->state(), StageState::Described);
  complete(a, "DONE");
  complete(b, "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  // The canceled tasks never dispatch.
  EXPECT_FALSE(broker_->get("q.pending", 0.0).has_value());
  for (const std::string& uid : later) {
    EXPECT_EQ(store_.state_of(uid), "CANCELED");
  }
  expect_scheduled_once(store_, app, *synchronizer_);
}

TEST_F(WfpFixture, RescanLeavesStageToItsRunningPostExecHook) {
  // The hook runs after the stage committed DONE, and the enqueue rescan
  // wakes every 2 ms meanwhile. It must not complete the pipeline under
  // the hook, whose add_stage would then throw.
  PipelinePtr app = make_app(1, 1);
  std::weak_ptr<Pipeline> weak = app;
  app->stage_at(0)->post_exec = [weak] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto stage = std::make_shared<Stage>("appended");
    auto task = std::make_shared<Task>("t");
    task->duration_s = 1.0;
    stage->add_task(task);
    if (auto p = weak.lock()) p->add_stage(stage);
  };
  start_wfp();
  complete(pop_pending(), "DONE");
  const std::string next = pop_pending();
  ASSERT_FALSE(next.empty());
  complete(next, "DONE");
  wfp_->wait_completion();
  EXPECT_EQ(app->state(), PipelineState::Done);
  EXPECT_EQ(app->stage_count(), 2u);
  EXPECT_EQ(wfp_->state(), ComponentState::Running);  // never faulted
}

TEST_F(WfpFixture, StateJournalSeesEveryTransition) {
  PipelinePtr app = make_app(1, 1);
  start_wfp();
  const std::string uid = pop_pending();
  complete(uid, "DONE");
  wfp_->wait_completion();
  // DESCRIBED->SCHEDULING->SCHEDULED->SUBMITTING->SUBMITTED->EXECUTED->DONE
  int task_transitions = 0;
  for (const StateTransaction& t : store_.history()) {
    if (t.uid == uid) ++task_transitions;
  }
  EXPECT_EQ(task_transitions, 6);
  EXPECT_EQ(store_.state_of(uid), "DONE");
  EXPECT_EQ(store_.state_of(app->uid()), "DONE");
}

}  // namespace
}  // namespace entk
