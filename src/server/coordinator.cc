#include "src/server/coordinator.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/server/master_aggregator.h"

namespace fl::server {
namespace {

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

void CoordinatorActor::Emit(analytics::Event e) {
  e.at = Now();
  e.source = analytics::JournalSource::kCoordinator;
  init_.context->events->Emit(e);
}

CoordinatorActor::CoordinatorActor(Init init) : init_(std::move(init)) {
  FL_CHECK(init_.context != nullptr);
  FL_CHECK(!init_.tasks.empty());
}

void CoordinatorActor::OnStart() {
  for (FLTaskDescriptor& task : init_.tasks) {
    TaskState st;
    st.encoded_plans = std::make_shared<const PlansByVersion>(
        EncodePlanSet(task.plans));
    st.descriptor = std::move(task);
    st.next_due = Now();
    tasks_.push_back(std::move(st));
  }
  init_.tasks.clear();
  RefreshModelBytes();
  for (ActorId sel : init_.selectors) {
    Send(sel, MsgCoordinatorHello{id()});
  }
  BroadcastQuota();
  SendAfter(init_.tick_period, id(), MsgCoordinatorTick{});
}

void CoordinatorActor::OnStop() {
  if (init_.lock_epoch != 0) {
    (void)init_.context->locks->Release(init_.population, name(),
                                        init_.lock_epoch);
  }
}

void CoordinatorActor::RefreshModelBytes() {
  model_ = std::make_shared<const Checkpoint>(
      init_.context->model_store->Latest());
  model_bytes_ = std::make_shared<const Bytes>(model_->Serialize());
}

void CoordinatorActor::OnMessage(const actor::Envelope& env) {
  // Coordinator work is round planning / plan distribution: the paper's
  // configuration phase.
  const profiler::ScopedPhase profile_scope(profiler::Phase::kConfiguration);
  if (Cast<MsgCoordinatorTick>(env) != nullptr) {
    HandleTick();
  } else if (const auto* m = Cast<MsgSelectorStatus>(env)) {
    selector_waiting_[m->selector] = m->waiting;
  } else if (const auto* m = Cast<MsgRoundComplete>(env)) {
    HandleComplete(*m);
  } else if (const auto* m = Cast<MsgRoundAbandoned>(env)) {
    HandleAbandoned(*m);
  } else if (const auto* m = Cast<MsgUpdateRoundConfig>(env)) {
    for (TaskState& task : tasks_) {
      if (m->task.value == 0 || task.descriptor.id == m->task) {
        task.descriptor.round_config = m->config;
      }
    }
  } else if (const auto* m = Cast<actor::DeathNotice>(env)) {
    if (active_ && m->died == active_->master) {
      // "If the Master Aggregator fails, the current round of the FL task it
      // manages will fail, but will then be restarted by the Coordinator"
      // (Sec. 4.4).
      Emit({.kind = analytics::JournalEventKind::kRoundOutcome,
            .reason = analytics::FlightReason::kMasterLost,
            .outcome = protocol::RoundOutcome::kFailed,
            .round = active_->round});
      tasks_[active_->task_index].next_due = Now();
      active_.reset();
      BroadcastQuota();
    }
  }
}

void CoordinatorActor::HandleTick() {
  // Keep the population lock alive; losing it means another Coordinator owns
  // this population and this instance must stand down.
  if (init_.lock_epoch != 0) {
    const Status s = init_.context->locks->Renew(init_.population, name(),
                                                 init_.lock_epoch, Now());
    if (!s.ok()) {
      FL_LOG(Warning) << "coordinator " << name()
                      << " lost population lock: " << s.ToString();
      system().Stop(id());
      return;
    }
  }

  if (!active_) {
    const auto due = NextDueTask();
    // Appendix A: "the FL server schedules an FL task for execution only
    // once a desired number of devices are available" — don't burn a round
    // attempt while the waiting pools are too thin to reach the minimum.
    if (due.has_value()) {
      std::size_t waiting = 0;
      for (const auto& [sel, count] : selector_waiting_) waiting += count;
      const auto& cfg = tasks_[*due].descriptor.round_config;
      if (waiting >= cfg.MinSelectionCount()) {
        StartRound(*due);
      }
    }
  } else {
    // Keep feeding the in-flight selection phase.
    const auto& cfg = tasks_[active_->task_index].descriptor.round_config;
    const std::size_t target = cfg.SelectionTarget();
    std::size_t per_selector = init_.selectors.empty()
                                   ? 0
                                   : (target + init_.selectors.size() - 1) /
                                         init_.selectors.size();
    for (ActorId sel : init_.selectors) {
      Send(sel, MsgForwardDevices{per_selector, active_->master});
    }
  }
  BroadcastQuota();
  SendAfter(init_.tick_period, id(), MsgCoordinatorTick{});
}

std::optional<std::size_t> CoordinatorActor::NextDueTask() const {
  // Round-robin from the rotation cursor over due tasks.
  for (std::size_t k = 0; k < tasks_.size(); ++k) {
    const std::size_t i = (rotation_cursor_ + k) % tasks_.size();
    if (tasks_[i].next_due <= Now()) return i;
  }
  return std::nullopt;
}

void CoordinatorActor::StartRound(std::size_t task_index) {
  TaskState& task = tasks_[task_index];
  ++round_counter_;
  const RoundId round{(init_.lock_epoch << 32) | round_counter_};

  MasterAggregatorActor::Init minit;
  minit.round = round;
  minit.task = task.descriptor.id;
  minit.coordinator = id();
  minit.config = task.descriptor.round_config;
  // The plan's server part picks the aggregation op; all versions share it.
  minit.aggregation_op =
      task.encoded_plans->empty()
          ? plan::AggregationOp::kWeightedFedAvg
          : task.descriptor.plans.plans().begin()->second.server.aggregation;
  minit.global_model = model_;
  minit.model_bytes = model_bytes_;
  minit.encoded_plans = task.encoded_plans;
  minit.context = init_.context;

  const ActorId master = system().Spawn<MasterAggregatorActor>(
      "master-r" + std::to_string(round.value), std::move(minit));
  system().Watch(master, id());
  active_ = ActiveRound{round, task_index, master, Now()};
  rotation_cursor_ = (task_index + 1) % tasks_.size();

  // Kick the selectors immediately.
  const std::size_t target = task.descriptor.round_config.SelectionTarget();
  const std::size_t per_selector =
      init_.selectors.empty()
          ? 0
          : (target + init_.selectors.size() - 1) / init_.selectors.size();
  for (ActorId sel : init_.selectors) {
    Send(sel, MsgForwardDevices{per_selector, master});
  }
  BroadcastQuota();
}

void CoordinatorActor::HandleComplete(const MsgRoundComplete& msg) {
  if (!active_ || msg.round != active_->round) return;
  TaskState& task = tasks_[active_->task_index];

  fedavg::FedAvgAccumulator acc(
      task.descriptor.plans.plans().begin()->second.server.aggregation,
      *model_);
  Checkpoint delta = msg.delta_sum;
  Status s = acc.AccumulateSum(std::move(delta), msg.weight_sum,
                               msg.contributors);
  if (s.ok()) {
    auto next_model = acc.Finalize(*model_);
    if (next_model.ok()) {
      RoundRecord record;
      record.task = task.descriptor.id;
      record.task_name = task.descriptor.name;
      record.round_number = ++task.rounds_run;
      record.committed_at = Now();
      record.contributors = msg.contributors;
      record.metrics = msg.metrics.All();
      // Fig. 1 step 6: only now does anything touch persistent storage.
      init_.context->model_store->Commit(std::move(next_model).value(),
                                         std::move(record));
      RefreshModelBytes();
      ++rounds_committed_;
      Emit({.kind = analytics::JournalEventKind::kRoundOutcome,
            .outcome = protocol::RoundOutcome::kCommitted,
            .count = static_cast<std::uint32_t>(msg.contributors),
            .round = msg.round,
            .selection_duration = msg.selection_duration,
            .round_duration = msg.round_duration});
    } else {
      s = next_model.status();
    }
  }
  if (!s.ok()) {
    Emit({.kind = analytics::JournalEventKind::kRoundOutcome,
          .reason = analytics::FlightReason::kCommitFailed,
          .outcome = protocol::RoundOutcome::kFailed,
          .round = msg.round});
  }
  // Master self-reaps at end of life (it lingers to reject stragglers).
  task.next_due = Now() + task.descriptor.round_cadence;
  active_.reset();
  BroadcastQuota();
}

void CoordinatorActor::HandleAbandoned(const MsgRoundAbandoned& msg) {
  if (!active_ || msg.round != active_->round) return;
  Emit({.kind = analytics::JournalEventKind::kRoundOutcome,
        .reason = msg.reason,
        .outcome = msg.outcome,
        .count = msg.count,
        .min_report = msg.min_report,
        .round = msg.round});
  ++rounds_abandoned_;
  TaskState& task = tasks_[active_->task_index];
  // Back off a little before retrying an abandoned round.
  task.next_due = Now() + task.descriptor.round_cadence;
  // Master self-reaps at end of life (it lingers to reject stragglers).
  active_.reset();
  BroadcastQuota();
}

void CoordinatorActor::BroadcastQuota() {
  MsgSelectorQuota quota;
  quota.accepting = init_.pipelined_selection || !active_.has_value();
  quota.max_waiting = init_.max_waiting_per_selector;
  quota.estimated_population = init_.context->estimated_population;
  for (ActorId sel : init_.selectors) {
    Send(sel, quota);
  }
}

}  // namespace fl::server
