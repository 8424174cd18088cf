#include "src/server/master_aggregator.h"

#include <algorithm>

#include "src/analytics/flight_dump.h"
#include "src/server/aggregator.h"
#include "src/telemetry/trace.h"

namespace fl::server {
namespace {

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

MasterAggregatorActor::MasterAggregatorActor(Init init)
    : init_(std::move(init)),
      codec_id_(analytics::InternCodec(protocol::RoundCodecName(init_.config))) {
  FL_CHECK(init_.context != nullptr);
  combined_.emplace(init_.aggregation_op, *init_.global_model);
}

void MasterAggregatorActor::Emit(analytics::Event e) {
  e.at = Now();
  e.source = analytics::JournalSource::kMaster;
  e.round = init_.round;
  init_.context->events->Emit(e);
}

void MasterAggregatorActor::OnStart() {
  started_at_ = Now();
  OpenRoundSpans();
  const telemetry::ScopedTraceContext scope(RoundCtx());
  Emit({.kind = analytics::JournalEventKind::kRoundOpen,
        .count = static_cast<std::uint32_t>(init_.config.goal_count),
        .min_report = MinReport()});
  Emit({.kind = analytics::JournalEventKind::kPhase, .count = 0});
  SendAfter(init_.config.selection_timeout, id(),
            MsgSelectionTimeout{init_.round});
  // Ephemeral end of life: outlive the reporting window (plus straggler
  // grace) and then disappear together with any remaining Aggregators.
  SendAfter(init_.config.selection_timeout + init_.config.reporting_deadline +
                init_.config.device_participation_cap + Minutes(3),
            id(), MsgSelfStop{});
}

void MasterAggregatorActor::OnMessage(const actor::Envelope& env) {
  // Map the round's protocol phase onto the profiler vocabulary so samples
  // taken inside master dispatch slice by where the round actually was.
  const profiler::ScopedPhase profile_scope(
      phase_ == Phase::kSelection    ? profiler::Phase::kSelection
      : phase_ == Phase::kReporting  ? profiler::Phase::kAggregation
      : phase_ == Phase::kClosing    ? profiler::Phase::kClosing
                                     : profiler::Phase::kNone,
      init_.round.value);
  if (const auto* m = Cast<MsgDevicesForwarded>(env)) {
    HandleForwarded(m->links);
  } else if (const auto* m = Cast<MsgSelectionTimeout>(env)) {
    if (m->round == init_.round && phase_ == Phase::kSelection) {
      // "The selection phase lasts until the goal count is reached or a
      // timeout occurs; in the latter case, the round will be started or
      // abandoned depending on whether the minimal goal count has been
      // reached" (Sec. 2.2).
      if (pending_links_.size() >= init_.config.MinSelectionCount()) {
        BeginReporting();
      } else {
        Abandon(protocol::RoundOutcome::kAbandonedSelection,
                analytics::FlightReason::kSelectionTimeout,
                pending_links_.size());
      }
    }
  } else if (const auto* m = Cast<MsgReportingDeadline>(env)) {
    if (m->round == init_.round && phase_ == Phase::kReporting) {
      FlushAll();
    }
  } else if (const auto* m = Cast<MsgReportingProgress>(env)) {
    HandleProgress(*m);
  } else if (const auto* m = Cast<MsgAggregatorResult>(env)) {
    HandleAggregatorResult(*m);
  } else if (const auto* m = Cast<actor::DeathNotice>(env)) {
    HandleAggregatorDeath(m->died);
  } else if (Cast<MsgSelfStop>(env) != nullptr) {
    if (phase_ != Phase::kDone) {
      Abandon(protocol::RoundOutcome::kAbandonedReporting,
              analytics::FlightReason::kMasterEndOfLife, 0);
    }
    system().Stop(id());
  }
}

void MasterAggregatorActor::HandleForwarded(std::vector<DeviceLink> links) {
  for (DeviceLink& link : links) {
    if (phase_ != Phase::kSelection ||
        pending_links_.size() >= init_.config.SelectionTarget()) {
      // Over-selection target met; turn extras away with a retry window.
      RejectLink(link, analytics::FlightReason::kRoundFull);
      continue;
    }
    Emit({.kind = analytics::JournalEventKind::kMasterAccepted,
          .device = link.device,
          .session = link.session});
    ++devices_received_;
    pending_links_.push_back(std::move(link));
  }
  if (phase_ == Phase::kSelection &&
      pending_links_.size() >= init_.config.SelectionTarget()) {
    BeginReporting();
  }
}

void MasterAggregatorActor::OpenRoundSpans() {
  if (!telemetry::Enabled()) return;
  auto& tracer = telemetry::Tracer::Global();
  round_span_ = tracer.Begin("round", Now(), telemetry::Tracer::kNoParent);
  tracer.AddAttr(round_span_, "round", std::to_string(init_.round.value));
  tracer.AddAttr(round_span_, "task", std::to_string(init_.task.value));
  selection_span_ = tracer.Begin("phase:selection", Now(), round_span_);
}

void MasterAggregatorActor::CloseRoundSpans(const char* outcome,
                                            std::size_t contributors) {
  if (round_span_ == 0) return;
  auto& tracer = telemetry::Tracer::Global();
  if (selection_span_ != 0) {
    tracer.End(selection_span_, Now());
    selection_span_ = 0;
  }
  if (reporting_span_ != 0) {
    tracer.End(reporting_span_, Now());
    reporting_span_ = 0;
  }
  tracer.AddAttr(round_span_, "outcome", outcome);
  tracer.AddAttr(round_span_, "contributors", std::to_string(contributors));
  tracer.End(round_span_, Now());
  round_span_ = 0;
}

void MasterAggregatorActor::BeginReporting() {
  phase_ = Phase::kReporting;
  configured_at_ = Now();
  // Aggregator spawns, configure messages, and the reporting-deadline timer
  // below all inherit this round's context.
  const telemetry::ScopedTraceContext scope(RoundCtx());
  Emit({.kind = analytics::JournalEventKind::kPhase, .count = 1});
  // The configuration phase (plan/model push to the cohort) is a single
  // simulated instant here: the span pair still marks the boundary between
  // the Sec. 2.2 windows in the trace.
  std::uint64_t config_span = 0;
  if (round_span_ != 0) {
    auto& tracer = telemetry::Tracer::Global();
    tracer.End(selection_span_, Now());
    selection_span_ = 0;
    config_span = tracer.Begin("phase:configuration", Now(), round_span_);
    tracer.AddAttr(config_span, "devices",
                   std::to_string(pending_links_.size()));
  }
  // Dynamic fan-out: one Aggregator per devices_per_aggregator slice.
  const std::size_t per = std::max<std::size_t>(
      1, init_.config.devices_per_aggregator);
  std::size_t spawned = 0;
  for (std::size_t start = 0; start < pending_links_.size(); start += per) {
    AggregatorActor::Init agg_init;
    agg_init.round = init_.round;
    agg_init.task = init_.task;
    agg_init.master = id();
    agg_init.config = init_.config;
    agg_init.aggregation_op = init_.aggregation_op;
    agg_init.global_model = init_.global_model;
    agg_init.model_bytes = init_.model_bytes;
    agg_init.encoded_plans = init_.encoded_plans;
    agg_init.context = init_.context;
    const ActorId agg = system().Spawn<AggregatorActor>(
        "aggregator-r" + std::to_string(init_.round.value) + "-" +
            std::to_string(spawned++),
        std::move(agg_init));
    system().Watch(agg, id());
    aggregators_.emplace(agg, AggState{});
    ++results_outstanding_;

    MsgConfigureDevices cfg;
    const std::size_t end = std::min(pending_links_.size(), start + per);
    cfg.links.assign(pending_links_.begin() + static_cast<std::ptrdiff_t>(start),
                     pending_links_.begin() + static_cast<std::ptrdiff_t>(end));
    Send(agg, std::move(cfg));
  }
  pending_links_.clear();
  if (config_span != 0) {
    auto& tracer = telemetry::Tracer::Global();
    tracer.AddAttr(config_span, "aggregators",
                   std::to_string(aggregators_.size()));
    tracer.End(config_span, Now());
    reporting_span_ = tracer.Begin("phase:reporting", Now(), round_span_);
  }
  Emit({.kind = analytics::JournalEventKind::kPhase, .count = 2});
  SendAfter(init_.config.reporting_deadline, id(),
            MsgReportingDeadline{init_.round});
}

void MasterAggregatorActor::HandleProgress(const MsgReportingProgress& msg) {
  const auto it = aggregators_.find(msg.aggregator);
  if (it == aggregators_.end()) return;
  if (msg.has_metrics) combined_->AddMetrics(msg.metrics);
  it->second.accepted = msg.accepted;
  it->second.wire_bytes = msg.wire_bytes;
  total_accepted_ = 0;
  for (const auto& [a, st] : aggregators_) total_accepted_ += st.accepted;
  if (phase_ == Phase::kReporting &&
      total_accepted_ >= init_.config.goal_count) {
    // "If enough devices report in time, the round will be successfully
    // completed" — stop the stragglers and collect the partial sums.
    FlushAll();
  }
}

void MasterAggregatorActor::FlushAll() {
  if (flushed_) return;
  flushed_ = true;
  phase_ = Phase::kClosing;
  const telemetry::ScopedTraceContext scope(RoundCtx());
  Emit({.kind = analytics::JournalEventKind::kPhase, .count = 3});
  for (const auto& [agg, st] : aggregators_) {
    if (!st.done) Send(agg, MsgFlush{});
  }
  MaybeFinishRound();
}

void MasterAggregatorActor::HandleAggregatorResult(
    const MsgAggregatorResult& msg) {
  auto it = aggregators_.find(msg.aggregator);
  if (it == aggregators_.end() || it->second.done) return;
  it->second.done = true;
  --results_outstanding_;
  if (msg.ok) {
    // "The Master Aggregator then further aggregates the intermediate
    // aggregators' results into a final aggregate" (Sec. 6).
    Checkpoint delta = msg.delta_sum;
    const Status s = combined_->AccumulateSum(std::move(delta),
                                              msg.weight_sum,
                                              msg.contributors);
    if (!s.ok()) Emit({.kind = analytics::JournalEventKind::kServerError});
  } else if (!msg.error.empty()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
  }
  // The aggregator stays alive to '#'-reject its stragglers; it reaps
  // itself at end of life (MsgSelfStop).
  MaybeFinishRound();
}

void MasterAggregatorActor::HandleAggregatorDeath(ActorId who) {
  auto it = aggregators_.find(who);
  if (it == aggregators_.end() || it->second.done) return;
  // "if an Aggregator or Selector crashes, only the devices connected to
  // that actor will be lost" (Sec. 4.4).
  it->second.done = true;
  --results_outstanding_;
  total_accepted_ = 0;
  for (const auto& [a, st] : aggregators_) {
    if (a != who) total_accepted_ += st.accepted;
  }
  it->second.accepted = 0;
  Emit({.kind = analytics::JournalEventKind::kServerError});
  MaybeFinishRound();
}

void MasterAggregatorActor::MaybeFinishRound() {
  if (phase_ != Phase::kClosing || results_outstanding_ > 0) return;
  phase_ = Phase::kDone;
  const telemetry::ScopedTraceContext scope(RoundCtx());
  const std::size_t contributors = combined_->contributions();
  if (contributors >= init_.config.MinReportCount()) {
    MsgRoundComplete done;
    done.round = init_.round;
    done.task = init_.task;
    done.delta_sum = combined_->delta_sum();
    done.weight_sum = combined_->weight_sum();
    done.contributors = contributors;
    done.metrics = combined_->metrics();
    done.selection_duration = configured_at_ - started_at_;
    done.round_duration = Now() - started_at_;
    CloseRoundSpans("committed", contributors);
    // wire_bytes sums the per-aggregator cumulative accepted upload bytes
    // (crashed cohorts included), so it equals the sum of the journaled
    // per-accept wire_bytes — fl_analyze checks that as an invariant.
    std::uint64_t wire_bytes = 0;
    for (const auto& [a, st] : aggregators_) wire_bytes += st.wire_bytes;
    Emit({.kind = analytics::JournalEventKind::kRoundCommit,
          .codec = codec_id_,
          .count = static_cast<std::uint32_t>(contributors),
          .min_report = MinReport(),
          .bytes = wire_bytes});
    Send(init_.coordinator, std::move(done));
  } else {
    Abandon(protocol::RoundOutcome::kAbandonedReporting,
            analytics::FlightReason::kBelowMinReports, contributors);
  }
}

void MasterAggregatorActor::RejectLink(DeviceLink& link,
                                       analytics::FlightReason reason) {
  Emit({.kind = analytics::JournalEventKind::kCheckinRejected,
        .reason = reason,
        .device = link.device,
        .session = link.session});
  link.reject(RejectionNotice{
      init_.context->pace->SuggestWindow(
          Now(), init_.context->estimated_population, Duration{},
          *init_.context->rng),
      reason});
}

void MasterAggregatorActor::Abandon(protocol::RoundOutcome outcome,
                                    analytics::FlightReason reason,
                                    std::size_t count) {
  phase_ = Phase::kDone;
  const telemetry::ScopedTraceContext scope(RoundCtx());
  CloseRoundSpans(protocol::RoundOutcomeName(outcome),
                  combined_->contributions());
  Emit({.kind = analytics::JournalEventKind::kRoundAbandoned,
        .reason = reason,
        .outcome = outcome,
        .count = static_cast<std::uint32_t>(count),
        .min_report = MinReport()});
  // Turn away anything still buffered from selection.
  for (DeviceLink& link : pending_links_) {
    RejectLink(link, analytics::FlightReason::kRoundAbandonedReject);
  }
  pending_links_.clear();
  for (const auto& [agg, st] : aggregators_) {
    if (!st.done) Send(agg, MsgFlush{});
  }
  MsgRoundAbandoned msg;
  msg.round = init_.round;
  msg.task = init_.task;
  msg.outcome = outcome;
  msg.reason = reason;
  msg.count = static_cast<std::uint32_t>(count);
  msg.min_report = MinReport();
  Send(init_.coordinator, std::move(msg));
}

}  // namespace fl::server
