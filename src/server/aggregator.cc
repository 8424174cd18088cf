#include "src/server/aggregator.h"

#include <algorithm>
#include <cmath>

#include "src/analytics/flight_dump.h"
#include "src/common/logging.h"
#include "src/fedavg/codec.h"
#include "src/telemetry/trace_context.h"

namespace fl::server {
namespace {

template <typename T>
const T* Cast(const actor::Envelope& env) {
  return std::any_cast<T>(&env.payload);
}

}  // namespace

void AggregatorActor::Emit(analytics::Event e) {
  e.at = Now();
  e.source = analytics::JournalSource::kAggregator;
  e.round = init_.round;
  init_.context->events->Emit(e);
}

AggregatorActor::AggregatorActor(Init init)
    : init_(std::move(init)),
      codec_id_(analytics::InternCodec(
          protocol::WireCodecName(init_.config.codec))) {
  FL_CHECK(init_.context != nullptr);
  FL_CHECK(init_.global_model != nullptr);
  accumulator_.emplace(init_.aggregation_op, *init_.global_model);
}

protocol::ReconnectWindow AggregatorActor::NextWindow() {
  return init_.context->pace->SuggestWindow(
      Now(), init_.context->estimated_population, Duration{},
      *init_.context->rng);
}

void AggregatorActor::OnMessage(const actor::Envelope& env) {
  if (const auto* m = Cast<MsgConfigureDevices>(env)) {
    HandleConfigure(*m);
  } else if (const auto* m = Cast<DeviceReport>(env)) {
    const profiler::ScopedPhase profile_scope(
        profiler::Phase::kAggregation, init_.round.value);
    HandleReport(*m);
  } else if (Cast<MsgFlush>(env) != nullptr) {
    const profiler::ScopedPhase profile_scope(
        profiler::Phase::kAggregation, init_.round.value);
    HandleFlush();
  } else if (const auto* m = Cast<SecAggAdvertiseMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggAdvertise(*m);
  } else if (const auto* m = Cast<SecAggShareKeysMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggShares(*m);
  } else if (const auto* m = Cast<SecAggMaskedInputMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggMasked(*m);
  } else if (const auto* m = Cast<SecAggUnmaskResponseMsg>(env)) {
    const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                              init_.round.value);
    HandleSecAggUnmask(*m);
  } else if (const auto* m = Cast<MsgSecAggPhaseTimeout>(env)) {
    HandleSecAggPhaseTimeout(m->phase);
  } else if (Cast<MsgSelfStop>(env) != nullptr) {
    // Anything still unreported this long after the deadline went silent —
    // the device side has already accounted for its own drop, so close the
    // links without double-counting an outcome.
    for (auto& [device, entry] : devices_) {
      if (entry.state == DeviceStateTag::kAssigned) {
        entry.state = DeviceStateTag::kClosed;
        entry.link.closed(ConnectionClosed{"aggregator end of life"});
      }
    }
    system().Stop(id());
  }
}

void AggregatorActor::HandleConfigure(const MsgConfigureDevices& msg) {
  // Ephemeral lifetime: stay alive past the reporting deadline so stragglers
  // get a '#' rejection rather than silence (Table 1: 22% of sessions end
  // in an upload rejected after the window closed).
  if (devices_.empty()) {
    SendAfter(init_.config.reporting_deadline +
                  init_.config.device_participation_cap + Minutes(2),
              id(), MsgSelfStop{});
  }
  const bool secure =
      init_.config.aggregation == protocol::AggregationMode::kSecure;
  if (secure && !secagg_.has_value()) {
    // Vector = quantized update coordinates + one trailing weight word.
    // Under cohort-agreed sparsification only the agreed subset is masked,
    // so the vector (and every PRG expansion) shrinks proportionally.
    secagg_total_coords_ = init_.global_model->TotalParameters();
    secagg_vector_length_ =
        fedavg::KeepCount(secagg_total_coords_,
                          init_.config.secagg.keep_fraction) +
        1;
    secagg_index_seed_ =
        0x5eca66ull ^ (init_.round.value * 0x9E3779B97F4A7C15ull);
    // Derive the agreed subset once; every cohort member masks, and
    // FinalizeSecAgg decodes, against this one copy.
    if (secagg_vector_length_ - 1 < secagg_total_coords_) {
      secagg_agreed_ = std::make_shared<const std::vector<std::uint32_t>>(
          fedavg::AgreedIndexSet(secagg_index_seed_, secagg_total_coords_,
                                 secagg_vector_length_ - 1));
    }
    const std::size_t m = msg.links.size();
    secagg_threshold_ = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               std::ceil(init_.config.secagg.threshold_fraction *
                         static_cast<double>(m))));
    secagg_.emplace(secagg_threshold_, secagg_vector_length_,
                    init_.config.secagg.ring_bits);
    // Codec width is the round's configured cohort cap so every participant
    // derives the identical fixed-point scale.
    codec_.emplace(init_.config.secagg.clip,
                   static_cast<std::uint32_t>(std::max<std::size_t>(
                       init_.config.devices_per_aggregator, 2)),
                   init_.config.secagg.ring_bits);
    // Arm the advertise-phase timer.
    SendAfter(init_.config.reporting_deadline / 4, id(),
              MsgSecAggPhaseTimeout{init_.round, 0});
  }

  secagg::ParticipantIndex next_index =
      static_cast<secagg::ParticipantIndex>(devices_.size());
  for (const DeviceLink& link : msg.links) {
    // Configuration phase (Sec. 2.2): plan + checkpoint to each device,
    // picking the plan version the device's runtime supports.
    const auto plan_it = [&]() {
      auto it = init_.encoded_plans->upper_bound(link.runtime_version);
      return it == init_.encoded_plans->begin() ? init_.encoded_plans->end()
                                                : std::prev(it);
    }();
    if (plan_it == init_.encoded_plans->end()) {
      // Device too old for every versioned plan: turn it away.
      Emit({.kind = analytics::JournalEventKind::kCheckinRejected,
            .reason = analytics::FlightReason::kRuntimeTooOld,
            .device = link.device,
            .session = link.session});
      link.reject(RejectionNotice{NextWindow(),
                                  analytics::FlightReason::kRuntimeTooOld});
      continue;
    }

    DeviceEntry entry;
    entry.link = link;
    TaskAssignment assignment;
    // The master installed the round's context around this configure message;
    // hand it across the event-queue boundary so the device-side session
    // span links under the round span.
    assignment.trace = telemetry::CurrentTraceContext();
    assignment.round = init_.round;
    assignment.task = init_.task;
    assignment.aggregator = id();
    assignment.plan_bytes = plan_it->second.bytes;
    assignment.plan = plan_it->second.plan;
    assignment.model_bytes = init_.model_bytes;
    assignment.model = init_.global_model;
    assignment.participation_deadline =
        Now() + init_.config.device_participation_cap;
    if (secure) {
      entry.secagg_index = ++next_index;
      by_index_[entry.secagg_index] = link.device;
      assignment.secagg_enabled = true;
      assignment.secagg_index = entry.secagg_index;
      assignment.secagg_threshold = secagg_threshold_;
      assignment.secagg_vector_length = secagg_vector_length_;
      assignment.secagg_clip = init_.config.secagg.clip;
      assignment.secagg_max_summands = static_cast<std::uint32_t>(
          std::max<std::size_t>(init_.config.devices_per_aggregator, 2));
      assignment.secagg_ring_bits = init_.config.secagg.ring_bits;
      assignment.secagg_index_seed = secagg_index_seed_;
      assignment.secagg_agreed_indices = secagg_agreed_;
    } else {
      // Plain-path update codec: every cohort member encodes with the same
      // per-round stages so the Aggregator can decode uniformly.
      assignment.codec = init_.config.codec;
    }
    devices_.emplace(link.device, std::move(entry));
    Emit({.kind = analytics::JournalEventKind::kDownload,
          .bytes = plan_it->second.bytes->size() + init_.model_bytes->size()});
    link.assign(assignment);
  }
}

void AggregatorActor::HandleReport(const DeviceReport& report) {
  const auto it = devices_.find(report.device);
  Emit({.kind = analytics::JournalEventKind::kUpload,
        .bytes = report.upload_wire_bytes});
  if (it == devices_.end()) return;  // not ours
  if (flushed_ || it->second.state != DeviceStateTag::kAssigned) {
    // Reporting window closed — '#' in the session shape (Table 1).
    RejectReport(it->second, analytics::FlightReason::kLate);
    return;
  }

  // Deserialize and fold in; corruption is treated as a device drop.
  fedavg::ClientMetrics metrics = report.metrics;
  if (init_.aggregation_op != plan::AggregationOp::kMetricsOnly) {
    auto update = [&]() -> Result<Checkpoint> {
      if (!report.codec_encoded) {
        return Checkpoint::Deserialize(report.update_bytes);
      }
      // Codec path: payload is the encoded flat weighted delta.
      auto flat = fedavg::DecodeUpdate(
          report.update_bytes, init_.global_model->TotalParameters());
      if (!flat.ok()) return flat.status();
      return init_.global_model->Unflatten(*flat);
    }();
    if (!update.ok()) {
      it->second.state = DeviceStateTag::kClosed;
      RejectReport(it->second, analytics::FlightReason::kCorrupt);
      return;
    }
    const Status s = accumulator_->Accumulate(std::move(update).value(),
                                              report.weight, metrics);
    if (!s.ok()) {
      it->second.state = DeviceStateTag::kClosed;
      RejectReport(it->second, analytics::FlightReason::kAccumulate);
      return;
    }
  } else {
    // Metrics-only accumulation cannot fail.
    const Status s = accumulator_->Accumulate(Checkpoint{}, 1.0f, metrics);
    FL_CHECK(s.ok());
  }

  it->second.state = DeviceStateTag::kReported;
  ++accepted_;
  accepted_wire_bytes_ += report.upload_wire_bytes;
  Emit({.kind = analytics::JournalEventKind::kReportAccepted,
        .codec = codec_id_,
        .device = report.device,
        .session = it->second.link.session,
        .bytes = report.upload_wire_bytes});
  it->second.link.report_ack(ReportAck{true, NextWindow()});
  Send(init_.master, MsgReportingProgress{id(), accepted_, accepted_wire_bytes_,
                                          metrics, true});
}

void AggregatorActor::RejectReport(DeviceEntry& entry,
                                   analytics::FlightReason reason) {
  Emit({.kind = analytics::JournalEventKind::kReportRejected,
        .reason = reason,
        .device = entry.link.device,
        .session = entry.link.session});
  entry.link.report_ack(ReportAck{false, NextWindow()});
}

void AggregatorActor::CloseRemaining(const std::string& reason,
                                     analytics::JournalEventKind outcome) {
  for (auto& [device, entry] : devices_) {
    if (entry.state == DeviceStateTag::kAssigned) {
      entry.state = DeviceStateTag::kClosed;
      entry.link.closed(ConnectionClosed{reason});
      Emit({.kind = outcome,
            .device = device,
            .session = entry.link.session});
    }
  }
}

void AggregatorActor::HandleFlush() {
  if (flushed_) return;
  flushed_ = true;
  if (init_.config.aggregation == protocol::AggregationMode::kSecure) {
    // A flush mid-protocol: try to finish with whoever committed.
    if (secagg_phase_ <= 1) {
      // Nothing committed yet; the secure aggregate is unrecoverable.
      CloseRemaining("round flushed before secagg commit",
                     analytics::JournalEventKind::kParticipantAborted);
      FinishAndReport(false, "flushed before commit");
    }
    // Phases 2/3 continue to completion via their own timers.
    return;
  }
  // In-flight devices are left to finish; their late uploads are rejected
  // with '#'. This mirrors the production behaviour behind Table 1 and the
  // "aborted" series of Fig. 7.
  FinishAndReport(true, "");
}

void AggregatorActor::FinishAndReport(bool ok, const std::string& error) {
  if (reported_to_master_) return;
  reported_to_master_ = true;
  MsgAggregatorResult result;
  result.aggregator = id();
  result.ok = ok;
  if (ok) {
    if (init_.aggregation_op != plan::AggregationOp::kMetricsOnly &&
        init_.config.aggregation != protocol::AggregationMode::kSecure) {
      result.delta_sum = accumulator_->delta_sum();
      result.weight_sum = accumulator_->weight_sum();
    }
    result.contributors = accepted_;
  } else {
    result.error = error;
  }
  Send(init_.master, std::move(result));
}

// --------------------------------------------------------------------------
// Secure Aggregation orchestration (Sec. 6). The Aggregator is the protocol
// server for its cohort; phase deadlines tolerate drop-outs at every step.
// --------------------------------------------------------------------------

void AggregatorActor::HandleSecAggAdvertise(const SecAggAdvertiseMsg& msg) {
  if (!secagg_ || secagg_phase_ != 0) return;
  Emit({.kind = analytics::JournalEventKind::kUpload, .bytes = msg.upload_wire_bytes});
  const auto it = devices_.find(msg.device);
  if (it == devices_.end()) return;
  const Status s = secagg_->CollectAdvertisement(msg.advertisement);
  if (!s.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    return;
  }
  // Everyone answered: no need to wait out the timer window.
  if (++secagg_advertised_ == devices_.size()) {
    AdvanceSecAggAfterAdvertising();
  }
}

void AggregatorActor::HandleSecAggPhaseTimeout(int phase) {
  if (!secagg_ || phase != secagg_phase_) return;
  switch (phase) {
    case 0: AdvanceSecAggAfterAdvertising(); break;
    case 1: AdvanceSecAggAfterSharing(); break;
    case 2: AdvanceSecAggAfterCommit(); break;
    case 3: FinalizeSecAgg(); break;
    default: break;
  }
}

void AggregatorActor::AdvanceSecAggAfterAdvertising() {
  if (secagg_phase_ != 0) return;
  auto directory = secagg_->FinishAdvertising();
  if (!directory.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    CloseRemaining("secagg advertise failed",
                   analytics::JournalEventKind::kParticipantDropped);
    FinishAndReport(false, directory.status().ToString());
    return;
  }
  secagg_phase_ = 1;
  for (auto& [device, entry] : devices_) {
    if (entry.state != DeviceStateTag::kAssigned) continue;
    if (directory->count(entry.secagg_index) == 0) continue;
    const std::size_t bytes = directory->size() * 24;
    Emit({.kind = analytics::JournalEventKind::kDownload, .bytes = bytes});
    entry.link.secagg_directory(SecAggDirectoryMsg{*directory});
  }
  SendAfter(init_.config.reporting_deadline / 4, id(),
            MsgSecAggPhaseTimeout{init_.round, 1});
}

void AggregatorActor::HandleSecAggShares(const SecAggShareKeysMsg& msg) {
  if (!secagg_ || secagg_phase_ != 1) return;
  Emit({.kind = analytics::JournalEventKind::kUpload, .bytes = msg.upload_wire_bytes});
  const Status s = secagg_->CollectShares(msg.message);
  if (!s.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    return;
  }
  if (++secagg_shared_ == secagg_advertised_) {
    AdvanceSecAggAfterSharing();
  }
}

void AggregatorActor::AdvanceSecAggAfterSharing() {
  if (secagg_phase_ != 1) return;
  auto u1 = secagg_->FinishSharing();
  if (!u1.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    CloseRemaining("secagg sharing failed",
                   analytics::JournalEventKind::kParticipantDropped);
    FinishAndReport(false, u1.status().ToString());
    return;
  }
  secagg_phase_ = 2;
  secagg_u1_size_ = u1->size();
  for (auto& [device, entry] : devices_) {
    if (entry.state != DeviceStateTag::kAssigned) continue;
    const bool in_u1 =
        std::find(u1->begin(), u1->end(), entry.secagg_index) != u1->end();
    if (!in_u1) continue;
    SecAggSharesMsg out;
    out.shares = secagg_->SharesFor(entry.secagg_index);
    out.u1 = *u1;
    std::size_t bytes = 16;
    for (const auto& sh : out.shares) bytes += sh.ciphertext.size() + 8;
    Emit({.kind = analytics::JournalEventKind::kDownload, .bytes = bytes});
    entry.link.secagg_shares(out);
  }
  // Commit phase runs until the round's reporting deadline.
  SendAfter(init_.config.reporting_deadline / 2, id(),
            MsgSecAggPhaseTimeout{init_.round, 2});
}

void AggregatorActor::HandleSecAggMasked(const SecAggMaskedInputMsg& msg) {
  if (!secagg_ || secagg_phase_ != 2) return;
  Emit({.kind = analytics::JournalEventKind::kUpload, .bytes = msg.upload_wire_bytes});
  const auto it = devices_.find(msg.device);
  if (it == devices_.end()) return;
  const Status s = secagg_->CollectMaskedInput(msg.input);
  if (!s.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    return;
  }
  it->second.metrics = msg.metrics;  // plaintext metrics; sums stay masked
  it->second.state = DeviceStateTag::kReported;
  ++accepted_;
  accepted_wire_bytes_ += msg.upload_wire_bytes;
  // count=1 tags the accept mode=secagg: masked inputs may legally commit
  // after the round's closing phase (HandleFlush lets phases 2/3 run to
  // completion), so the analyzer's accept-after-close invariant exempts them.
  Emit({.kind = analytics::JournalEventKind::kReportAccepted,
        .count = 1,
        .device = msg.device,
        .session = it->second.link.session,
        .bytes = msg.upload_wire_bytes});
  it->second.link.report_ack(ReportAck{true, NextWindow()});
  Send(init_.master,
       MsgReportingProgress{id(), accepted_, accepted_wire_bytes_,
                            it->second.metrics, true});
  if (accepted_ == secagg_u1_size_) {
    AdvanceSecAggAfterCommit();  // every key-holder committed: no stragglers
  }
}

void AggregatorActor::AdvanceSecAggAfterCommit() {
  if (secagg_phase_ != 2) return;
  auto request = secagg_->FinishCommit();
  if (!request.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    CloseRemaining("secagg commit failed",
                   analytics::JournalEventKind::kParticipantDropped);
    FinishAndReport(false, request.status().ToString());
    return;
  }
  secagg_phase_ = 3;
  for (auto& [device, entry] : devices_) {
    if (entry.state == DeviceStateTag::kClosed) continue;
    const bool survivor =
        std::find(request->survivors.begin(), request->survivors.end(),
                  entry.secagg_index) != request->survivors.end();
    if (!survivor) continue;
    Emit({.kind = analytics::JournalEventKind::kDownload,
          .bytes = 8 * (request->dropped.size() + request->survivors.size())});
    entry.link.secagg_unmask(SecAggUnmaskMsg{*request});
  }
  SendAfter(init_.config.reporting_deadline / 4, id(),
            MsgSecAggPhaseTimeout{init_.round, 3});
}

void AggregatorActor::HandleSecAggUnmask(const SecAggUnmaskResponseMsg& msg) {
  if (!secagg_ || secagg_phase_ != 3) return;
  Emit({.kind = analytics::JournalEventKind::kUpload, .bytes = msg.upload_wire_bytes});
  const Status s = secagg_->CollectUnmaskingResponse(msg.response);
  if (!s.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    return;
  }
  // Finalize as soon as every survivor answered; the timer handles the
  // drop-out tail (the protocol itself only needs the Shamir threshold).
  if (++secagg_unmask_responses_ == secagg_->committed().size()) {
    FinalizeSecAgg();
  }
}

void AggregatorActor::FinalizeSecAgg() {
  if (secagg_phase_ != 3 || reported_to_master_) return;
  auto sum = secagg_->Finalize();
  CloseRemaining("secagg round over", analytics::JournalEventKind::kParticipantAborted);
  if (!sum.ok()) {
    Emit({.kind = analytics::JournalEventKind::kServerError});
    FinishAndReport(false, sum.status().ToString());
    return;
  }
  // Decode: leading words are fixed-point update coordinates, the last word
  // is the integer weight sum. The weight word is decoded as a raw reduced
  // value (weights are non-negative, so no sign extension), which bounds
  // legal weight sums to the ring width.
  const std::size_t keep = secagg_vector_length_ - 1;
  std::vector<float> flat(secagg_total_coords_, 0.0f);
  if (keep == secagg_total_coords_) {
    for (std::size_t i = 0; i < keep; ++i) {
      flat[i] = codec_->DecodeSum((*sum)[i]);
    }
  } else {
    // Cohort-agreed sparsification: the masked vector carried only the
    // agreed coordinate subset; rescale by total/keep so the sparse sum is
    // an unbiased estimate of the dense one.
    const std::vector<std::uint32_t>& agreed = *secagg_agreed_;
    const float rescale = static_cast<float>(secagg_total_coords_) /
                          static_cast<float>(keep);
    for (std::size_t i = 0; i < keep; ++i) {
      flat[agreed[i]] = codec_->DecodeSum((*sum)[i]) * rescale;
    }
  }
  const float weight_sum = static_cast<float>((*sum)[keep]);

  auto delta = init_.global_model->Unflatten(flat);
  if (!delta.ok()) {
    FinishAndReport(false, delta.status().ToString());
    return;
  }

  reported_to_master_ = true;
  MsgAggregatorResult result;
  result.aggregator = id();
  result.ok = true;
  result.delta_sum = std::move(delta).value();
  result.weight_sum = weight_sum;
  result.contributors = secagg_->committed().size();
  Send(init_.master, std::move(result));
}

}  // namespace fl::server
