#include "src/core/device_agent.h"

#include <algorithm>
#include <cstring>

#include "src/common/fixed_point.h"
#include "src/device/runtime.h"
#include "src/fedavg/codec.h"
#include "src/fedavg/compression.h"
#include "src/profiler/profiler.h"
#include "src/secagg/client.h"
#include "src/telemetry/trace.h"
#include "src/telemetry/trace_context.h"

namespace fl::core {
namespace {

using analytics::DeviceState;
using analytics::SessionEvent;

crypto::Key256 RandomKey(Rng& rng) {
  crypto::Key256 k;
  for (std::size_t i = 0; i < k.size(); i += 8) {
    const std::uint64_t v = rng.Next();
    std::memcpy(k.data() + i, &v, 8);
  }
  return k;
}

// Coarse wire sizes for SecAgg control messages (payload + framing).
std::uint64_t AdvertiseBytes() { return 48; }
std::uint64_t ShareKeysBytes(const secagg::ShareKeysMessage& m) {
  std::uint64_t b = 16;
  for (const auto& s : m.shares) b += s.ciphertext.size() + 12;
  return b;
}
std::uint64_t MaskedBytes(const secagg::MaskedInput& m,
                          std::uint8_t ring_bits) {
  return 16 + secagg::MaskedVectorWireBytes(m.masked.size(), ring_bits);
}
std::uint64_t UnmaskBytes(const secagg::UnmaskingResponse& r) {
  return 16 + 16 * (r.mask_key_shares.size() + 5 * r.self_seed_shares.size());
}

}  // namespace

struct DeviceAgent::Session {
  SessionId id;
  std::uint64_t generation = 0;
  SimTime checkin_at;
  device::PopulationId population{};
  // Issued (or forged) at session start, presented at check-in; held here
  // so the handshake callback captures only (this, generation).
  device::AttestationToken attestation;
  analytics::SessionTrace trace;
  // Causal context: seeded at check-in (device + session), completed on
  // assignment (round + the server's config span as parent). Installed
  // around every frontend call so server-side spans/flight records link
  // back to this session.
  telemetry::TraceContext ctx;
  std::uint64_t session_span = 0;  // "device_session", open while assigned
  std::uint64_t train_span = 0;
  std::uint64_t upload_span = 0;
  // Populated on assignment. The plan, model and agreed index set are the
  // round's shared decoded artifacts, not per-device copies.
  bool assigned = false;
  RoundId round;
  ActorId aggregator;
  std::shared_ptr<const plan::FLPlan> plan;
  std::shared_ptr<const Checkpoint> global;
  SimTime participation_deadline;
  bool training = false;
  bool trained = false;
  bool uploading = false;
  bool reported_ok = false;
  std::optional<fedavg::ClientUpdateResult> update;
  fedavg::ClientMetrics metrics;
  std::size_t examples_used = 0;
  // Plain-path update codec for this round (from the assignment).
  protocol::WireCodecConfig codec;
  // Secure aggregation.
  bool secagg = false;
  double secagg_clip = 4.0;
  std::uint32_t secagg_max_summands = 2;
  std::uint8_t secagg_ring_bits = 32;
  std::size_t secagg_vector_length = 0;
  std::shared_ptr<const std::vector<std::uint32_t>> secagg_agreed;
  std::optional<secagg::SecAggClient> sa_client;
  std::optional<std::vector<secagg::ParticipantIndex>> sa_u1;
  bool sa_masked_sent = false;
};

DeviceAgent::DeviceAgent(sim::DeviceProfile profile, const Services* services)
    : services_(services),
      availability_(*services->curve, profile),
      rng_(profile.seed ^ 0x5851f42d4c957f2dULL) {
  FL_CHECK(services_->queue != nullptr && services_->network != nullptr &&
           services_->frontend != nullptr && services_->stats != nullptr &&
           services_->events != nullptr &&
           services_->config != nullptr && services_->attestation != nullptr);
  eligible_ = availability_.eligible();
}

DeviceAgent::~DeviceAgent() = default;

bool DeviceAgent::Active(std::uint64_t gen) const {
  return session_ != nullptr && session_->generation == gen;
}

void DeviceAgent::Configure(const std::string& population,
                            const std::string& store_name,
                            Duration min_checkin_interval) {
  GetOrCreateStore(store_name);
  const auto id = scheduler_.RegisterPopulation(
      device::PopulationRegistration{population, store_name,
                                     min_checkin_interval});
  FL_CHECK_MSG(id.ok(), id.status().ToString());
}

device::InMemoryExampleStore& DeviceAgent::GetOrCreateStore(
    const std::string& name) {
  if (const auto found = stores_.Find(name); found.ok()) {
    auto* store = dynamic_cast<device::InMemoryExampleStore*>(*found);
    FL_CHECK_MSG(store != nullptr,
                 "example store '" + name + "' is not an in-memory store");
    return *store;
  }
  auto store = std::make_unique<device::InMemoryExampleStore>(
      name, device::InMemoryExampleStore::Options{});
  device::InMemoryExampleStore& ref = *store;
  FL_CHECK(stores_.Register(std::move(store)).ok());
  return ref;
}

void DeviceAgent::Start() {
  services_->stats->OnDeviceStateChange(DeviceState::kIdle, state_);
  ScheduleNextToggle();
  // First check-in attempt at a jittered offset so fleet start-up is not a
  // thundering herd by construction.
  ScheduleCheckinPoll(Millis(static_cast<std::int64_t>(
      rng_.UniformInt(static_cast<std::uint64_t>(Minutes(30).millis)))));
}

void DeviceAgent::SetState(DeviceState s) {
  if (s == state_) return;
  services_->stats->OnDeviceStateChange(state_, s);
  state_ = s;
}

void DeviceAgent::AddTrace(SessionEvent e) {
  if (!session_) return;
  session_->trace.events.push_back(e);
  Emit(analytics::JournalEventForSession(e));
}

void DeviceAgent::Emit(analytics::JournalEventKind kind, std::uint32_t count,
                       std::uint64_t bytes) {
  services_->events->Emit(
      {.at = services_->queue->now(),
       .source = analytics::JournalSource::kDevice,
       .kind = kind,
       .count = count,
       .device = profile().id,
       .session = session_->id,
       .round = session_->assigned ? session_->round : RoundId{},
       .bytes = bytes});
}

void DeviceAgent::ScheduleNextToggle() {
  const SimTime t = availability_.NextToggleAfter(services_->queue->now());
  const bool will_be = availability_.eligible();
  services_->queue->At(t, [this, will_be] { OnToggle(will_be); });
}

void DeviceAgent::OnToggle(bool now_eligible) {
  eligible_ = now_eligible;
  if (!eligible_ && session_) {
    Interrupt();
  } else if (eligible_) {
    TryCheckin();
  }
  ScheduleNextToggle();
}

void DeviceAgent::ScheduleCheckinPoll(Duration delay) {
  if (poll_scheduled_) return;
  poll_scheduled_ = true;
  services_->queue->After(delay, [this] {
    poll_scheduled_ = false;
    TryCheckin();
  });
}

void DeviceAgent::TryCheckin() {
  if (!eligible_ || session_ != nullptr) return;
  const SimTime now = services_->queue->now();
  const auto population = scheduler_.NextSession(now);
  if (!population.has_value()) {
    const auto next = scheduler_.NextRunnableAt(now);
    if (next.has_value()) {
      const Duration wait =
          std::max(Seconds(30), *next - now) +
          Millis(static_cast<std::int64_t>(rng_.UniformInt(10'000)));
      ScheduleCheckinPoll(wait);
    }
    return;
  }
  BeginSession(*population);
}

void DeviceAgent::BeginSession(device::PopulationId population) {
  ++sessions_started_;
  const std::uint64_t gen = ++generation_;
  session_ = std::make_unique<Session>();
  Session& s = *session_;
  s.id = SessionId{(profile().id.value << 20) | sessions_started_};
  s.generation = gen;
  s.checkin_at = services_->queue->now();
  s.population = population;
  s.trace.session = s.id;
  s.trace.device = profile().id;
  s.ctx = telemetry::TraceContext{0, s.id.value, profile().id.value, 0};
  scheduler_.OnSessionStarted(population, services_->queue->now());
  SetState(DeviceState::kAttesting);

  // Attestation + connection handshake, then check in (Sec. 3 Job
  // Invocation: "the FL runtime contacts the FL server to announce that it
  // is ready to run tasks for the given FL population").
  const std::uint64_t nonce = rng_.Next();
  session_->attestation =
      profile().genuine
          ? services_->attestation->Issue(profile().id, nonce)
          : services_->attestation->Forge(profile().id, nonce, rng_.Next());

  const Duration handshake = services_->network->SampleRtt() * 2;
  services_->queue->After(handshake, [this, gen] {
    if (!Active(gen)) return;
    AddTrace(SessionEvent::kCheckin);
    const profiler::ScopedPhase profile_scope(profiler::Phase::kCheckin);
    server::CheckInRequest req;
    req.device = profile().id;
    req.session = session_->id;
    req.runtime_version = profile().os_version;
    req.attestation = session_->attestation;
    // Selector-side records for this check-in carry the device context.
    const telemetry::ScopedTraceContext scope(session_->ctx);
    const bool ok = services_->frontend->CheckIn(req, MakeLink(gen));
    if (!ok) {
      // Attestation rejected (or no selectors): long back-off.
      scheduler_.SetEarliestCheckin(session_->population,
                                    services_->queue->now() + Hours(6));
      EndSession(false);
      return;
    }
    SetState(DeviceState::kWaiting);
    // Give-up timer: a crashed Selector means silence, not rejection
    // (Sec. 4.4: "only the devices connected to that actor will be lost").
    services_->queue->After(services_->config->device_give_up, [this, gen] {
      if (!Active(gen) || session_->assigned) return;
      EndSession(false);
    });
  });
}

server::DeviceLink DeviceAgent::MakeLink(std::uint64_t gen) {
  server::DeviceLink link;
  link.device = profile().id;
  link.session = session_->id;
  link.runtime_version = profile().os_version;
  link.connected_at = services_->queue->now();
  link.assign = [this, gen](const server::TaskAssignment& a) {
    if (!Active(gen)) return;
    // Configuration download: plan + global model over the device's radio.
    const std::uint64_t bytes = a.plan_bytes->size() + a.model_bytes->size();
    const sim::TransferOutcome t = services_->network->Transfer(
        profile(), sim::Direction::kDownload, bytes);
    server::TaskAssignment copy = a;
    const bool ok = t.success && !t.corrupted;
    services_->queue->After(t.duration, [this, gen, copy, ok] {
      if (!Active(gen)) return;
      if (!ok) {
        FailSession("configuration download failed");
        return;
      }
      OnAssigned(gen, copy);
    });
  };
  link.reject = [this, gen](const server::RejectionNotice& n) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen, n] { OnRejected(gen, n); });
  };
  link.report_ack = [this, gen](const server::ReportAck& ack) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen, ack] { OnReportAck(gen, ack); });
  };
  link.secagg_directory = [this, gen](const server::SecAggDirectoryMsg& m) {
    const sim::TransferOutcome t = services_->network->Transfer(
        profile(), sim::Direction::kDownload, 24 * m.directory.size() + 16);
    if (!t.success) return;  // device misses the directory; drops out
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggDirectory(gen, m); });
  };
  link.secagg_shares = [this, gen](const server::SecAggSharesMsg& m) {
    std::uint64_t bytes = 16;
    for (const auto& s : m.shares) bytes += s.ciphertext.size() + 12;
    const sim::TransferOutcome t = services_->network->Transfer(
        profile(), sim::Direction::kDownload, bytes);
    if (!t.success) return;
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggShares(gen, m); });
  };
  link.secagg_unmask = [this, gen](const server::SecAggUnmaskMsg& m) {
    const sim::TransferOutcome t = services_->network->Transfer(
        profile(), sim::Direction::kDownload,
        16 + 8 * (m.request.dropped.size() + m.request.survivors.size()));
    if (!t.success) return;
    services_->queue->After(t.duration,
                           [this, gen, m] { OnSecAggUnmask(gen, m); });
  };
  link.closed = [this, gen](const server::ConnectionClosed&) {
    services_->queue->After(services_->network->SampleRtt(),
                           [this, gen] { OnClosed(gen); });
  };
  return link;
}

void DeviceAgent::OnRejected(std::uint64_t gen,
                             const server::RejectionNotice& notice) {
  if (!Active(gen)) return;
  // Pace steering compliance: pick a reconnect time inside the window
  // ("The device attempts to respect this, modulo its eligibility").
  const SimTime when = protocol::PaceSteeringPolicy::PickWithinWindow(
      notice.retry_window, rng_);
  scheduler_.SetEarliestCheckin(session_->population, when);
  EndSession(false);
}

void DeviceAgent::OnAssigned(std::uint64_t gen,
                             const server::TaskAssignment& assignment) {
  Session& s = *session_;
  SetState(DeviceState::kParticipating);
  s.assigned = true;
  s.round = assignment.round;
  s.aggregator = assignment.aggregator;
  s.participation_deadline = assignment.participation_deadline;
  // After the round is bound, so the 'v' journal/flight record carries it
  // (critical-path attribution joins configured devices on the round id).
  AddTrace(SessionEvent::kDownloadedPlan);

  // Complete the causal context with the round and the server's config span
  // (carried across the event queue in the assignment), then open the
  // session-lifetime span as a context child — the cross-actor flow link.
  s.ctx.round = assignment.round.value;
  s.ctx.parent_span = assignment.trace.parent_span;
  if (telemetry::Enabled()) {
    const telemetry::ScopedTraceContext scope(s.ctx);
    s.session_span = telemetry::Tracer::Global().Begin(
        "device_session", services_->queue->now());
    auto& tracer = telemetry::Tracer::Global();
    tracer.AddAttr(s.session_span, "device", std::to_string(profile().id.value));
    tracer.AddAttr(s.session_span, "round", std::to_string(s.round.value));
  }
  if (s.session_span != 0) s.ctx.parent_span = s.session_span;

  // The round decoded the plan and model once for its whole cohort; the
  // serialized bytes above are what crossed the (simulated) radio.
  if (assignment.plan == nullptr || assignment.model == nullptr) {
    FailSession("assignment carries no decoded plan/model");
    return;
  }
  s.plan = assignment.plan;
  s.global = assignment.model;

  s.codec = assignment.codec;
  if (assignment.secagg_enabled) {
    s.secagg = true;
    s.secagg_clip = assignment.secagg_clip;
    s.secagg_max_summands = assignment.secagg_max_summands;
    s.secagg_ring_bits = assignment.secagg_ring_bits;
    s.secagg_vector_length = assignment.secagg_vector_length;
    s.secagg_agreed = assignment.secagg_agreed_indices;
    s.sa_client.emplace(assignment.secagg_index, assignment.secagg_threshold,
                        assignment.secagg_vector_length, RandomKey(rng_),
                        assignment.secagg_ring_bits);
    // Round 0: advertise keys right away, overlapping with training.
    const secagg::KeyAdvertisement adv = s.sa_client->AdvertiseKeys();
    SendSecAggUpload(gen, AdvertiseBytes(), [this, adv] {
      server::SecAggAdvertiseMsg msg;
      msg.device = profile().id;
      msg.round = session_->round;
      msg.advertisement = adv;
      msg.upload_wire_bytes = AdvertiseBytes();
      services_->frontend->SecAggAdvertise(session_->aggregator, msg);
    });
  }

  // Device-side participation cap.
  const Duration until_deadline = s.participation_deadline -
                                  services_->queue->now();
  if (until_deadline.millis > 0) {
    services_->queue->After(until_deadline, [this, gen] {
      if (!Active(gen)) return;
      if (session_->reported_ok) {
        // Already accepted; a Secure Aggregation session may be lingering
        // for the Finalization round — let its own grace timer end it.
        return;
      }
      // Capped by the server (Fig. 8); abandon quietly.
      Emit(analytics::JournalEventKind::kParticipantDropped);
      EndSession(false);
    });
  }

  StartTraining(gen);
}

void DeviceAgent::StartTraining(std::uint64_t gen) {
  Session& s = *session_;
  AddTrace(SessionEvent::kTrainingStarted);
  s.training = true;
  if (telemetry::Enabled()) {
    const telemetry::ScopedTraceContext scope(s.ctx);
    s.train_span = telemetry::Tracer::Global().Begin("device_train",
                                                     services_->queue->now());
  }

  // The computation itself is pure; its wall-clock cost is simulated.
  const profiler::ScopedPhase profile_scope(profiler::Phase::kTraining,
                                            s.round.value);
  const device::FlRuntime runtime(profile().os_version, &stores_);
  auto result = runtime.ExecutePlan(*s.plan, *s.global,
                                    services_->queue->now(), rng_);
  if (!result.ok()) {
    // E.g. the example store no longer satisfies the plan's selection
    // criteria — a model-issue '*' right after '[' (Sec. 5's "-v[*").
    FailSession(result.status().ToString());
    return;
  }
  s.metrics = result->metrics;
  s.examples_used = result->examples_used;
  if (result->update.has_value()) {
    s.update = std::move(result->update);
  }
  const Duration compute = device::EstimateComputeDuration(
      *s.plan, s.examples_used, profile());
  services_->queue->After(compute, [this, gen] {
    if (!Active(gen)) return;
    FinishTraining(gen);
  });
}

void DeviceAgent::FinishTraining(std::uint64_t gen) {
  Session& s = *session_;
  s.training = false;
  s.trained = true;
  AddTrace(SessionEvent::kTrainingCompleted);
  if (s.train_span != 0) {
    telemetry::Tracer::Global().End(s.train_span, services_->queue->now());
    s.train_span = 0;
  }
  if (s.secagg) {
    MaybeSendMaskedInput(gen);
  } else {
    BeginUpload(gen);
  }
}

void DeviceAgent::BeginUpload(std::uint64_t gen) {
  Session& s = *session_;
  AddTrace(SessionEvent::kUploadStarted);
  s.uploading = true;
  if (telemetry::Enabled()) {
    const telemetry::ScopedTraceContext scope(s.ctx);
    s.upload_span = telemetry::Tracer::Global().Begin("device_upload",
                                                      services_->queue->now());
  }

  const profiler::ScopedPhase profile_scope(profiler::Phase::kReporting,
                                            s.round.value);
  server::DeviceReport report;
  report.device = profile().id;
  report.session = s.id;
  report.round = s.round;
  report.metrics = s.metrics;

  std::uint64_t wire_bytes = 256;  // metrics-only floor (evaluation tasks)
  if (s.update.has_value()) {
    report.weight = s.update->weight;
    const auto& compression = services_->config->upload_compression;
    if (s.codec.enabled()) {
      // Pluggable codec path: the encoded payload itself travels; the
      // Aggregator decodes and accumulates (no server-side reconstruction
      // happens device-side, unlike the legacy compression path below).
      const std::vector<float> flat = s.update->weighted_delta.Flatten();
      fedavg::EncodedUpdate wire =
          fedavg::EncodeUpdate(flat, s.codec, rng_.Next());
      wire_bytes = wire.WireBytes();
      report.update_bytes = std::move(wire.payload);
      report.codec_encoded = true;
    } else if (compression.has_value()) {
      // Sec. 11 Bandwidth: compress the (compressible) update for the wire;
      // the server aggregates the reconstruction.
      const std::vector<float> flat = s.update->weighted_delta.Flatten();
      const fedavg::CompressedUpdate wire =
          fedavg::Compress(flat, *compression, rng_.Next());
      wire_bytes = wire.WireBytes();
      auto restored = fedavg::Decompress(wire);
      FL_CHECK(restored.ok());
      auto restored_ckpt = s.update->weighted_delta.Unflatten(*restored);
      FL_CHECK(restored_ckpt.ok());
      report.update_bytes = restored_ckpt->Serialize();
    } else {
      report.update_bytes = s.update->weighted_delta.Serialize();
      wire_bytes = report.update_bytes.size() + 64;
    }
  } else {
    report.weight = static_cast<float>(s.metrics.example_count);
  }
  report.upload_wire_bytes = wire_bytes;

  const sim::TransferOutcome t = services_->network->Transfer(
      profile(), sim::Direction::kUpload, wire_bytes);
  if (!t.success) {
    services_->queue->After(t.duration, [this, gen, t] {
      if (!Active(gen)) return;
      // Wasted bytes still hit the server NIC.
      Emit(analytics::JournalEventKind::kUpload, 0, t.bytes_on_wire);
      FailSession("upload failed");
    });
    return;
  }
  // Move the report into the event: the serialized update (the dominant
  // per-device buffer) travels device → event node → aggregator without a
  // single copy.
  services_->queue->After(
      t.duration, [this, gen, report = std::move(report)]() mutable {
    if (!Active(gen)) return;
    // Aggregator-side accept/reject records link back to this session.
    const telemetry::ScopedTraceContext scope(session_->ctx);
    services_->frontend->Report(session_->aggregator, std::move(report));
    // Ack timeout: a dead Aggregator means silence.
    services_->queue->After(services_->config->ack_timeout, [this, gen] {
      if (!Active(gen)) return;
      FailSession("no ack from aggregator");
    });
  });
}

void DeviceAgent::OnReportAck(std::uint64_t gen, const server::ReportAck& ack) {
  if (!Active(gen)) return;
  Session& s = *session_;
  s.uploading = false;
  s.reported_ok = ack.accepted;
  AddTrace(ack.accepted ? SessionEvent::kUploadCompleted
                        : SessionEvent::kUploadRejected);
  if (s.upload_span != 0) {
    telemetry::Tracer::Global().End(s.upload_span, services_->queue->now());
    s.upload_span = 0;
  }
  // Pace steering: the server tells reporting devices when to come back
  // (Sec. 2.2 Reporting).
  const SimTime when =
      protocol::PaceSteeringPolicy::PickWithinWindow(ack.next_checkin, rng_);
  scheduler_.SetEarliestCheckin(s.population, when);

  if (s.secagg && ack.accepted) {
    // Stay online for the Finalization round; end after a grace window.
    services_->queue->After(services_->config->ack_timeout * 2, [this, gen] {
      if (!Active(gen)) return;
      EndSession(true);
    });
    return;
  }
  EndSession(ack.accepted);
}

void DeviceAgent::OnClosed(std::uint64_t gen) {
  if (!Active(gen)) return;
  // Server-side abort: stop whatever is running; no further contact.
  EndSession(false);
}

// ---------------------------------------------------------------------------
// Secure Aggregation client-side rounds.
// ---------------------------------------------------------------------------

void DeviceAgent::SendSecAggUpload(std::uint64_t gen, std::uint64_t bytes,
                                   std::function<void()> send) {
  const sim::TransferOutcome t =
      services_->network->Transfer(profile(), sim::Direction::kUpload, bytes);
  if (!t.success) {
    // Lost control message: this device silently drops out of the protocol
    // round; SecAgg's share recovery handles it.
    return;
  }
  services_->queue->After(t.duration, [this, gen, send = std::move(send)] {
    if (!Active(gen)) return;
    // SecAgg control messages carry the session context to the aggregator.
    const telemetry::ScopedTraceContext scope(session_->ctx);
    send();
  });
}

void DeviceAgent::OnSecAggDirectory(std::uint64_t gen,
                                    const server::SecAggDirectoryMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            session_->round.value);
  auto shares = session_->sa_client->ShareKeys(m.directory);
  if (!shares.ok()) return;
  const std::uint64_t bytes = ShareKeysBytes(*shares);
  SendSecAggUpload(gen, bytes, [this, msg = std::move(shares).value(),
                                bytes]() mutable {
    server::SecAggShareKeysMsg out;
    out.device = profile().id;
    out.round = session_->round;
    out.message = std::move(msg);
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggShareKeys(session_->aggregator, out);
  });
}

void DeviceAgent::OnSecAggShares(std::uint64_t gen,
                                 const server::SecAggSharesMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  for (const secagg::EncryptedShare& s : m.shares) {
    session_->sa_client->ReceiveShare(s);
  }
  session_->sa_u1 = m.u1;
  MaybeSendMaskedInput(gen);
}

void DeviceAgent::MaybeSendMaskedInput(std::uint64_t gen) {
  Session& s = *session_;
  if (!s.trained || !s.sa_u1.has_value() || s.sa_masked_sent ||
      !s.sa_client.has_value()) {
    return;
  }
  if (!s.update.has_value()) return;  // evaluation tasks skip secagg
  s.sa_masked_sent = true;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            s.round.value);

  // Quantize update + trailing weight word. Codec parameters (clip,
  // max_summands, ring_bits, index seed) arrive with the assignment, so
  // device and Aggregator use identical fixed-point scales and — when the
  // cohort sparsifies — the identical agreed coordinate subset.
  const std::vector<float> flat = s.update->weighted_delta.Flatten();
  const std::size_t keep = s.secagg_vector_length - 1;
  FixedPointCodec codec(s.secagg_clip, s.secagg_max_summands,
                        s.secagg_ring_bits);
  std::vector<std::uint32_t> words(keep + 1);
  if (keep < flat.size()) {
    // The cohort's agreed subset, derived once by the Aggregator.
    FL_CHECK(s.secagg_agreed != nullptr && s.secagg_agreed->size() == keep);
    const std::vector<std::uint32_t>& agreed = *s.secagg_agreed;
    for (std::size_t i = 0; i < keep; ++i) {
      words[i] = codec.Encode(flat[agreed[i]]);
    }
  } else {
    for (std::size_t i = 0; i < flat.size(); ++i) {
      words[i] = codec.Encode(flat[i]);
    }
  }
  words[keep] = static_cast<std::uint32_t>(std::lround(s.update->weight)) &
                codec.ring_mask();

  auto masked = s.sa_client->MaskInput(words, *s.sa_u1);
  if (!masked.ok()) return;

  AddTrace(SessionEvent::kUploadStarted);
  s.uploading = true;
  const std::uint64_t bytes = MaskedBytes(*masked, s.secagg_ring_bits);
  SendSecAggUpload(gen, bytes, [this, input = std::move(masked).value(),
                                bytes]() mutable {
    server::SecAggMaskedInputMsg out;
    out.device = profile().id;
    out.round = session_->round;
    out.input = std::move(input);
    out.metrics = session_->metrics;
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggMaskedInput(session_->aggregator, out);
    // Ack timeout as in the simple path.
    const std::uint64_t gen2 = session_->generation;
    services_->queue->After(services_->config->ack_timeout, [this, gen2] {
      if (!Active(gen2)) return;
      if (session_->uploading) FailSession("no secagg ack");
    });
  });
}

void DeviceAgent::OnSecAggUnmask(std::uint64_t gen,
                                 const server::SecAggUnmaskMsg& m) {
  if (!Active(gen) || !session_->sa_client) return;
  const profiler::ScopedPhase profile_scope(profiler::Phase::kSecAgg,
                                            session_->round.value);
  auto resp = session_->sa_client->Unmask(m.request);
  if (!resp.ok()) return;
  const std::uint64_t bytes = UnmaskBytes(*resp);
  SendSecAggUpload(gen, bytes, [this, gen, r = std::move(resp).value(),
                                bytes]() mutable {
    server::SecAggUnmaskResponseMsg out;
    out.device = profile().id;
    out.round = session_->round;
    out.response = std::move(r);
    out.upload_wire_bytes = bytes;
    services_->frontend->SecAggUnmaskResponse(session_->aggregator, out);
    EndSession(true);
  });
}

// ---------------------------------------------------------------------------
// Session teardown.
// ---------------------------------------------------------------------------

void DeviceAgent::Interrupt() {
  if (!session_) return;
  // Interrupted mid-session ('!'): eligibility lost — e.g., the user picked
  // up the phone (Sec. 3: "the FL runtime will abort ... if these conditions
  // are no longer met").
  // An assigned session's '!' also counts as the participant's drop. A
  // SecAgg session lingering for Finalization after its accepted upload
  // ('^') already completed: it just ends, as the participation cap does.
  if (session_->assigned && !session_->reported_ok) {
    AddTrace(SessionEvent::kInterrupted);
  }
  EndSession(false);
}

void DeviceAgent::FailSession(const std::string& why) {
  (void)why;
  if (!session_) return;
  AddTrace(SessionEvent::kError);  // a drop too, once assigned
  EndSession(false);
}

void DeviceAgent::EndSession(bool completed) {
  if (!session_) return;
  if (completed) ++sessions_completed_;
  Emit(analytics::JournalEventKind::kSessionEnd, completed ? 1 : 0);
  // Close any spans the session still holds (abandon/interrupt paths).
  auto& tracer = telemetry::Tracer::Global();
  const SimTime now = services_->queue->now();
  if (session_->train_span != 0) tracer.End(session_->train_span, now);
  if (session_->upload_span != 0) tracer.End(session_->upload_span, now);
  if (session_->session_span != 0) {
    tracer.AddAttr(session_->session_span, "completed", completed ? "1" : "0");
    tracer.End(session_->session_span, now);
  }
  services_->stats->OnSessionTrace(session_->trace);
  if (session_->assigned) {
    services_->stats->OnParticipationTime(services_->queue->now() -
                                         session_->checkin_at);
  }
  session_.reset();
  ++generation_;
  scheduler_.OnSessionEnded();
  SetState(DeviceState::kIdle);
  // Plan the next check-in.
  const auto next = scheduler_.NextRunnableAt(now);
  if (next.has_value()) {
    ScheduleCheckinPoll(std::max(Seconds(30), *next - now));
  }
}

}  // namespace fl::core
