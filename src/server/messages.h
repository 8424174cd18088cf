// Wire-level and actor-level message types of the FL server (Sec. 2, 4).
//
// Devices are not actors — they sit behind flaky radios. A connected device
// is represented server-side by a DeviceLink: the server pushes messages
// through the link's callbacks (implemented by the fleet simulator with
// network latency and failure injection), and the device pushes messages to
// server actors through the ServerFrontend.
#pragma once

#include <any>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/journal.h"
#include "src/common/bytes.h"
#include "src/common/id.h"
#include "src/device/attestation.h"
#include "src/fedavg/client_update.h"
#include "src/fedavg/metrics.h"
#include "src/plan/plan.h"
#include "src/protocol/pace_steering.h"
#include "src/protocol/round_config.h"
#include "src/secagg/types.h"
#include "src/telemetry/trace_context.h"

namespace fl::server {

// ---------------------------------------------------------------------------
// Server -> device messages (delivered through DeviceLink callbacks).
// ---------------------------------------------------------------------------

// Configuration phase payload: "The server sends the FL plan and an FL
// checkpoint with the global model to each of the devices" (Sec. 2.2).
struct TaskAssignment {
  RoundId round;
  TaskId task;
  ActorId aggregator;              // where to report
  std::shared_ptr<const Bytes> plan_bytes;   // serialized (versioned) FLPlan
  std::shared_ptr<const Bytes> model_bytes;  // serialized global checkpoint
  // The same plan and model decoded once by the round and shared by its
  // whole cohort. Wire accounting uses the serialized bytes above; the
  // decoded copies only spare every simulated device its own decode.
  std::shared_ptr<const plan::FLPlan> plan;
  std::shared_ptr<const Checkpoint> model;
  SimTime participation_deadline;  // device-side cap (Fig. 8)
  // Secure Aggregation parameters (when enabled for this round).
  bool secagg_enabled = false;
  secagg::ParticipantIndex secagg_index = 0;
  std::size_t secagg_threshold = 0;
  std::size_t secagg_vector_length = 0;
  double secagg_clip = 4.0;
  // Fixed-point codec width: device and Aggregator must quantize with the
  // same scale for the masked sums to decode exactly.
  std::uint32_t secagg_max_summands = 2;
  // Fixed-point ring width (8..32): masked words travel as r-bit values.
  std::uint8_t secagg_ring_bits = 32;
  // Cohort-agreed sparsification: when secagg_vector_length - 1 is smaller
  // than the flat update, the device masks only the coordinates of
  // fedavg::AgreedIndexSet(secagg_index_seed, total, vector_length - 1).
  std::uint64_t secagg_index_seed = 0;
  // That subset, derived once per Aggregator cohort from the seed (null
  // when the cohort does not sparsify).
  std::shared_ptr<const std::vector<std::uint32_t>> secagg_agreed_indices;
  // Plain-path update codec for this round (all stages default OFF).
  protocol::WireCodecConfig codec;
  // Causal context of the configuring server side (round + config span):
  // DeviceLink callbacks cross the event queue as plain closures, so the
  // context travels explicitly here instead of in an actor envelope.
  telemetry::TraceContext trace;
};

// "If a device is not selected for participation, the server responds with
// instructions to reconnect at a later point in time" (Sec. 2.2).
struct RejectionNotice {
  protocol::ReconnectWindow retry_window;
  analytics::FlightReason reason = analytics::FlightReason::kNone;
};

struct ReportAck {
  bool accepted = false;  // false => '#' upload rejected (Table 1)
  protocol::ReconnectWindow next_checkin;
};

// Server -> device Secure Aggregation round messages.
struct SecAggDirectoryMsg { secagg::KeyDirectory directory; };
struct SecAggSharesMsg {
  std::vector<secagg::EncryptedShare> shares;  // addressed to this device
  std::vector<secagg::ParticipantIndex> u1;
};
struct SecAggUnmaskMsg { secagg::UnmaskingRequest request; };

// Stream teardown (aggregator flushed/crashed; device gives up silently).
struct ConnectionClosed { std::string reason; };

// The server's handle on a connected device ("Devices stay connected to the
// server for the duration of the round", Sec. 2.1).
struct DeviceLink {
  DeviceId device;
  SessionId session;
  std::uint32_t runtime_version = 1;
  SimTime connected_at;

  std::function<void(const TaskAssignment&)> assign;
  std::function<void(const RejectionNotice&)> reject;
  std::function<void(const ReportAck&)> report_ack;
  std::function<void(const SecAggDirectoryMsg&)> secagg_directory;
  std::function<void(const SecAggSharesMsg&)> secagg_shares;
  std::function<void(const SecAggUnmaskMsg&)> secagg_unmask;
  std::function<void(const ConnectionClosed&)> closed;
};

// ---------------------------------------------------------------------------
// Device -> server messages (sent through the ServerFrontend).
// ---------------------------------------------------------------------------

struct CheckInRequest {
  DeviceId device;
  SessionId session;
  std::uint32_t runtime_version = 1;
  device::AttestationToken attestation;
};

// Reporting phase: the computed update (or evaluation metrics).
struct DeviceReport {
  DeviceId device;
  SessionId session;
  RoundId round;
  // Serialized weighted-delta checkpoint — or, when codec_encoded is set,
  // the fedavg::EncodeUpdate payload of the flattened weighted delta.
  // Empty for evaluation tasks and secure-aggregation rounds (where the
  // update travels masked).
  Bytes update_bytes;
  // True when update_bytes carries a codec payload (decode with
  // fedavg::DecodeUpdate, then unflatten against the global schema).
  bool codec_encoded = false;
  float weight = 0;
  fedavg::ClientMetrics metrics;
  std::uint64_t upload_wire_bytes = 0;  // traffic accounting (Fig. 9)
};

// Device -> server Secure Aggregation messages.
struct SecAggAdvertiseMsg {
  DeviceId device;
  RoundId round;
  secagg::KeyAdvertisement advertisement;
  std::uint64_t upload_wire_bytes = 0;
};
struct SecAggShareKeysMsg {
  DeviceId device;
  RoundId round;
  secagg::ShareKeysMessage message;
  std::uint64_t upload_wire_bytes = 0;
};
struct SecAggMaskedInputMsg {
  DeviceId device;
  RoundId round;
  secagg::MaskedInput input;
  // Metrics travel in the clear alongside the masked update (only the sums
  // need protection; see the Sec. 6 footnote).
  fedavg::ClientMetrics metrics;
  std::uint64_t upload_wire_bytes = 0;
};
struct SecAggUnmaskResponseMsg {
  DeviceId device;
  RoundId round;
  secagg::UnmaskingResponse response;
  std::uint64_t upload_wire_bytes = 0;
};

// Device informs the server it abandoned the round (eligibility change /
// network loss is usually silent; this exists for tests).
struct DeviceAbandoned {
  DeviceId device;
  RoundId round;
};

// ---------------------------------------------------------------------------
// Actor-internal messages.
// ---------------------------------------------------------------------------

struct MsgDeviceArrived { DeviceLink link; };

// Coordinator -> Selector: how many devices to hold / where to send them.
struct MsgSelectorQuota {
  std::size_t max_waiting = 0;
  bool accepting = true;
  std::size_t estimated_population = 0;
};
struct MsgForwardDevices {
  std::size_t count = 0;
  ActorId destination;  // the round's Master Aggregator
};

// Selector -> Coordinator.
struct MsgSelectorStatus {
  ActorId selector;
  std::size_t waiting = 0;
  std::uint64_t total_accepted = 0;
  std::uint64_t total_rejected = 0;
};

// Selector -> Master Aggregator.
struct MsgDevicesForwarded { std::vector<DeviceLink> links; };

// Master Aggregator internal timers.
struct MsgSelectionTimeout { RoundId round; };
struct MsgReportingDeadline { RoundId round; };
struct MsgSecAggPhaseTimeout { RoundId round; int phase = 0; };

// Master -> Aggregator.
struct MsgConfigureDevices {
  std::vector<DeviceLink> links;
};
struct MsgFlush {};     // stop accepting reports; return sums
struct MsgSelfStop {};  // ephemeral actor end-of-life timer

// Aggregator -> Master. Sent once per accepted report so the master tracks
// the global goal count and folds in the report's metrics exactly.
struct MsgReportingProgress {
  ActorId aggregator;
  std::size_t accepted = 0;  // cumulative for this aggregator
  // Cumulative accepted upload bytes for this aggregator; the master's sum
  // feeds the round-commit wire_bytes accounting, and because progress is
  // sent per accepted report it matches the journaled accepts even when an
  // aggregator later crashes.
  std::uint64_t wire_bytes = 0;
  fedavg::ClientMetrics metrics;
  bool has_metrics = false;
};
struct MsgAggregatorResult {
  ActorId aggregator;
  bool ok = false;                 // false: secagg failed / nothing usable
  Checkpoint delta_sum;
  float weight_sum = 0;
  std::size_t contributors = 0;
  std::string error;
};

// Master -> Coordinator.
struct MsgRoundComplete {
  RoundId round;
  TaskId task;
  Checkpoint delta_sum;
  float weight_sum = 0;
  std::size_t contributors = 0;
  fedavg::MetricsAccumulator metrics;
  // Timing for Fig. 8.
  Duration selection_duration;
  Duration round_duration;
};
struct MsgRoundAbandoned {
  RoundId round;
  TaskId task;
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kAbandonedSelection;
  analytics::FlightReason reason = analytics::FlightReason::kOther;
  // What the reason counts, and the round's report minimum: the
  // coordinator's outcome event renders the same loss text as the master's.
  std::uint32_t count = 0;
  std::uint32_t min_report = 0;
};

// Coordinator self-tick.
struct MsgCoordinatorTick {};
// Coordinator -> Selectors on (re)start so they track the live instance.
struct MsgCoordinatorHello { ActorId coordinator; };

// Tuning service -> Coordinator: replace a task's round configuration for
// future rounds (Sec. 11 "Convergence Time": windows "should be dynamically
// adjusted"). task.value == 0 applies to every task.
struct MsgUpdateRoundConfig {
  TaskId task;
  protocol::RoundConfig config;
};
// Selector self-tick (prune stale waiters, push status).
struct MsgSelectorTick {};

}  // namespace fl::server
