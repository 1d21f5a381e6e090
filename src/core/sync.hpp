// State-synchronization protocol (paper Fig 2, messages 6 and 7).
//
// Every component that wants to advance a task/stage/pipeline state pushes
// a transition message to the AppManager's "states" queue; the Synchronizer
// (a subcomponent of AppManager) validates it against the transition
// tables, applies it to the live object, commits it to the transactional
// StateStore, and — when the requester asked for one — acknowledges on the
// requester's private ack queue. This makes AppManager the only stateful
// component: everyone else only holds queue handles and local bookkeeping.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>

#include "src/common/busy.hpp"
#include "src/common/clock.hpp"
#include "src/common/component.hpp"
#include "src/common/profiler.hpp"
#include "src/core/pipeline.hpp"
#include "src/mq/broker_handle.hpp"
#include "src/worker/sync_client.hpp"

namespace entk {

/// uid -> live object maps; owned by AppManager, shared with components.
/// Read-mostly after setup (lookups on every transition, inserts only at
/// pipeline/stage registration), so reads take shared locks and never
/// contend with each other.
class ObjectRegistry {
 public:
  void add_pipeline(const PipelinePtr& pipeline);

  TaskPtr task(const std::string& uid) const;
  StagePtr stage(const std::string& uid) const;
  PipelinePtr pipeline(const std::string& uid) const;
  /// The task as an RTS unit (to_unit), or nullopt for an unknown uid:
  /// the embedded ExecManager's resolver.
  std::optional<rts::TaskUnit> unit(const std::string& uid) const;

  std::size_t task_count() const;
  std::vector<PipelinePtr> pipelines() const;

  /// Register objects of a stage added at runtime (adaptive pipelines).
  void add_stage(const StagePtr& stage);

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, TaskPtr> tasks_;
  std::map<std::string, StagePtr> stages_;
  std::map<std::string, PipelinePtr> pipelines_;
};

// BusyAccumulator/BusyScope now live in src/common/busy.hpp and the
// component-side SyncClient (with Transition) in src/worker/sync_client.hpp
// — both are re-exported through the includes above so existing call sites
// compile unchanged. Only the AppManager-side pieces remain here.

class StateStore;

/// AppManager-side synchronizer: a supervised Component with one "sync"
/// worker consuming the states queue. Drains the backlog before honoring a
/// stop request; on restart-after-fault, requeues any delivery the dead
/// worker left unacked (already-applied transitions in it are rejected by
/// the transition tables, so replay is idempotent).
class Synchronizer : public Component {
 public:
  Synchronizer(mq::BrokerHandlePtr broker, std::string states_queue,
               ObjectRegistry* registry, StateStore* store,
               ProfilerPtr profiler);
  ~Synchronizer() override;

  BusyAccumulator& busy() { return busy_; }
  std::size_t processed() const { return processed_.load(); }
  std::size_t rejected() const { return rejected_.load(); }

 protected:
  void on_start() override;
  void on_reattach() override;

 private:
  void loop();
  void process(const json::Value& msg);
  /// Apply one transition; returns false when invalid.
  bool apply(const std::string& uid, const std::string& kind,
             const std::string& from, const std::string& to,
             const std::string& component);

  mq::BrokerHandlePtr broker_;
  const std::string states_queue_;
  ObjectRegistry* registry_;
  StateStore* store_;

  std::atomic<std::size_t> processed_{0};
  std::atomic<std::size_t> rejected_{0};
  BusyAccumulator busy_;
};

}  // namespace entk
