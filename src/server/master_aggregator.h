// Master Aggregator actor (Sec. 4.2): ephemeral per-round owner. "Master
// Aggregators manage the rounds of each FL task. In order to scale with the
// number of devices and update size, they make dynamic decisions to spawn
// one or more Aggregators to which work is delegated."
//
// The master also runs the round's phase windows (Sec. 2.2): it accepts
// forwarded devices until the participant target or the selection timeout,
// configures Aggregators, tracks reporting progress, and finalizes or
// abandons the round.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/actor/actor.h"
#include "src/fedavg/server_aggregate.h"
#include "src/server/messages.h"
#include "src/server/task.h"

namespace fl::server {

class MasterAggregatorActor final : public actor::Actor {
 public:
  struct Init {
    RoundId round;
    TaskId task;
    ActorId coordinator;
    protocol::RoundConfig config;
    plan::AggregationOp aggregation_op = plan::AggregationOp::kWeightedFedAvg;
    std::shared_ptr<const Checkpoint> global_model;
    std::shared_ptr<const Bytes> model_bytes;
    std::shared_ptr<const PlansByVersion> encoded_plans;
    ServerContext* context = nullptr;
  };

  explicit MasterAggregatorActor(Init init);

  void OnStart() override;
  void OnMessage(const actor::Envelope& env) override;

  std::size_t devices_received() const { return devices_received_; }
  std::size_t aggregator_count() const { return aggregators_.size(); }

 private:
  enum class Phase { kSelection, kReporting, kClosing, kDone };

  void HandleForwarded(std::vector<DeviceLink> links);
  void BeginReporting();
  // Opens the round/phase spans (telemetry on) — Sec. 2.2's Selection →
  // Configuration → Reporting windows become nested Perfetto slices.
  void OpenRoundSpans();
  void CloseRoundSpans(const char* outcome, std::size_t contributors);
  void HandleProgress(const MsgReportingProgress& msg);
  void HandleAggregatorResult(const MsgAggregatorResult& msg);
  void HandleAggregatorDeath(ActorId who);
  void FlushAll();
  void MaybeFinishRound();
  // `count` is what the loss reason counts (devices selected, reports).
  void Abandon(protocol::RoundOutcome outcome, analytics::FlightReason reason,
               std::size_t count);
  void RejectLink(DeviceLink& link, analytics::FlightReason reason);
  // Stamps time, source and round on a master fact and emits it.
  void Emit(analytics::Event e);
  std::uint32_t MinReport() const {
    return static_cast<std::uint32_t>(init_.config.MinReportCount());
  }
  // This round's causal context, installed around every send so timers,
  // aggregator spawns, and coordinator messages carry the round + its span.
  telemetry::TraceContext RoundCtx() const {
    return telemetry::TraceContext{init_.round.value, 0, 0, round_span_};
  }

  Init init_;
  const std::uint8_t codec_id_;  // InternCodec of the round's codec name
  Phase phase_ = Phase::kSelection;
  SimTime started_at_;
  SimTime configured_at_;
  std::vector<DeviceLink> pending_links_;  // buffered during selection
  std::size_t devices_received_ = 0;

  struct AggState {
    bool done = false;
    std::size_t accepted = 0;
    // Cumulative accepted upload bytes (rides along with progress, so it
    // stays consistent with the journaled accepts even if the aggregator
    // later crashes — the journal keeps those accepts too).
    std::uint64_t wire_bytes = 0;
  };
  std::map<ActorId, AggState> aggregators_;
  std::size_t results_outstanding_ = 0;
  std::size_t total_accepted_ = 0;
  bool flushed_ = false;

  std::optional<fedavg::FedAvgAccumulator> combined_;

  // Telemetry span ids (0 = not recording). The round span covers the whole
  // actor lifetime; exactly one phase span is open at a time under it.
  std::uint64_t round_span_ = 0;
  std::uint64_t selection_span_ = 0;
  std::uint64_t reporting_span_ = 0;
};

}  // namespace fl::server
