#include "src/server/frontend.h"

#include "src/plan/plan.h"

namespace fl::server {

PlansByVersion EncodePlanSet(const plan::VersionedPlanSet& plans) {
  PlansByVersion out;
  for (const auto& [version, p] : plans.plans()) {
    auto bytes = std::make_shared<const Bytes>(p.Serialize());
    // Decoded from the bytes, exactly as a device would decode them.
    auto decoded = plan::FLPlan::Deserialize(*bytes);
    FL_CHECK_MSG(decoded.ok(), decoded.status().ToString());
    out.emplace(version,
                EncodedPlan{std::move(bytes),
                            std::make_shared<const plan::FLPlan>(
                                std::move(decoded).value())});
  }
  return out;
}

bool ServerFrontend::CheckIn(const CheckInRequest& request, DeviceLink link) {
  ++checkins_;
  // Attestation gate (Sec. 3): only genuine devices may participate.
  if (!attestation_->Verify(request.attestation)) {
    ++attestation_failures_;
    context_->events->Emit({.at = system_->now(),
                            .source = analytics::JournalSource::kFrontend,
                            .kind = analytics::JournalEventKind::kServerError,
                            .device = request.device});
    return false;
  }
  if (selectors_.empty()) return false;
  // Stable routing: devices hash onto Selectors ("globally distributed,
  // close to devices" in production; a uniform hash here).
  const std::size_t idx =
      static_cast<std::size_t>(request.device.value * 0x9e3779b97f4a7c15ULL %
                               selectors_.size());
  system_->Send(ActorId{}, selectors_[idx], MsgDeviceArrived{std::move(link)});
  return true;
}

void ServerFrontend::Report(ActorId aggregator, DeviceReport report) {
  system_->Send(ActorId{}, aggregator, std::move(report));
}

void ServerFrontend::SecAggAdvertise(ActorId aggregator,
                                     SecAggAdvertiseMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggShareKeys(ActorId aggregator,
                                     SecAggShareKeysMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggMaskedInput(ActorId aggregator,
                                       SecAggMaskedInputMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

void ServerFrontend::SecAggUnmaskResponse(ActorId aggregator,
                                          SecAggUnmaskResponseMsg msg) {
  system_->Send(ActorId{}, aggregator, std::move(msg));
}

}  // namespace fl::server
