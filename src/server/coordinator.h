// Coordinator actor (Sec. 4.2): "Coordinators are the top-level actors which
// enable global synchronization and advancing rounds in lockstep. ... A
// Coordinator registers its address and the FL population it manages in a
// shared locking service, so there is always a single owner for every FL
// population. ... The Coordinator receives information about how many
// devices are connected to each Selector and instructs them how many devices
// to accept for participation, based on which FL tasks are scheduled.
// Coordinators spawn Master Aggregators to manage the rounds of each FL
// task."
//
// Task scheduling follows Sec. 7.1: "When more than one FL task is deployed
// in an FL population, the FL service chooses among them using a dynamic
// strategy that allows alternating between training and evaluation of a
// single model" — implemented as round-robin over due tasks.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/actor/actor.h"
#include "src/server/messages.h"
#include "src/server/task.h"

namespace fl::server {

class CoordinatorActor final : public actor::Actor {
 public:
  struct Init {
    std::string population;
    std::vector<FLTaskDescriptor> tasks;
    std::vector<ActorId> selectors;
    ServerContext* context = nullptr;
    Duration tick_period = Seconds(10);
    std::size_t max_waiting_per_selector = 2000;
    // Sec. 4.3: when true (default), Selectors keep accepting check-ins
    // while a round is reporting, so the next round's selection is already
    // done when this one commits. When false, selection only runs between
    // rounds (the ablation for bench_pipelining).
    bool pipelined_selection = true;
    // Lock epoch obtained by whoever spawned this coordinator.
    std::uint64_t lock_epoch = 0;
  };

  explicit CoordinatorActor(Init init);

  void OnStart() override;
  void OnStop() override;
  void OnMessage(const actor::Envelope& env) override;

  std::uint64_t rounds_committed() const { return rounds_committed_; }
  std::uint64_t rounds_abandoned() const { return rounds_abandoned_; }
  bool round_active() const { return active_.has_value(); }
  std::optional<ActorId> active_master() const {
    return active_.has_value() ? std::optional<ActorId>(active_->master)
                               : std::nullopt;
  }
  // Current (possibly adaptively-tuned) round configuration of a task.
  const protocol::RoundConfig& task_round_config(std::size_t index) const {
    FL_CHECK(index < tasks_.size());
    return tasks_[index].descriptor.round_config;
  }

 private:
  struct TaskState {
    FLTaskDescriptor descriptor;
    std::shared_ptr<const PlansByVersion> encoded_plans;
    SimTime next_due;
    std::uint64_t rounds_run = 0;
  };
  struct ActiveRound {
    RoundId round;
    std::size_t task_index = 0;
    ActorId master;
    SimTime started_at;
  };

  void HandleTick();
  void StartRound(std::size_t task_index);
  void HandleComplete(const MsgRoundComplete& msg);
  void HandleAbandoned(const MsgRoundAbandoned& msg);
  // Stamps time and source on a coordinator fact and emits it.
  void Emit(analytics::Event e);
  void BroadcastQuota();
  void RefreshModelBytes();
  std::optional<std::size_t> NextDueTask() const;

  Init init_;
  std::vector<TaskState> tasks_;
  std::optional<ActiveRound> active_;
  std::shared_ptr<const Bytes> model_bytes_;  // serialized latest global
  std::shared_ptr<const Checkpoint> model_;
  std::map<ActorId, std::size_t> selector_waiting_;
  std::uint64_t round_counter_ = 0;
  std::uint64_t rounds_committed_ = 0;
  std::uint64_t rounds_abandoned_ = 0;
  std::size_t rotation_cursor_ = 0;
};

}  // namespace fl::server
