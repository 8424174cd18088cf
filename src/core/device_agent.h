// DeviceAgent: one simulated phone. Combines the availability process
// (eligibility), the on-device FL runtime (Sec. 3), the multi-tenant
// scheduler, pace-steering compliance, the Secure Aggregation client, and
// the device half of the round protocol (Sec. 2.2), all driven by the
// discrete-event queue.
#pragma once

#include <memory>

#include "src/analytics/events.h"
#include "src/analytics/emit.h"
#include "src/core/config.h"
#include "src/core/fleet_stats.h"
#include "src/device/attestation.h"
#include "src/device/example_store.h"
#include "src/device/scheduler.h"
#include "src/server/frontend.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"

namespace fl::core {

class DeviceAgent {
 public:
  // Fleet-wide collaborators, shared by every agent: the embedder (FLSystem)
  // owns one instance and each agent keeps a pointer to it.
  struct Services {
    sim::EventQueue* queue = nullptr;
    sim::NetworkModel* network = nullptr;
    const sim::DiurnalCurve* curve = nullptr;
    server::ServerFrontend* frontend = nullptr;
    const device::AttestationAuthority* attestation = nullptr;
    FleetStats* stats = nullptr;  // state occupancy and session shapes
    const analytics::EventBus* events = nullptr;
    const FLSystemConfig* config = nullptr;
  };

  // `services` must outlive the agent.
  DeviceAgent(sim::DeviceProfile profile, const Services* services);
  ~DeviceAgent();

  // Registers a population + its example store on this device
  // ("Programmatic Configuration", Sec. 3).
  void Configure(const std::string& population, const std::string& store_name,
                 Duration min_checkin_interval);

  device::InMemoryExampleStore& GetOrCreateStore(const std::string& name);
  device::ExampleStoreRegistry& stores() { return stores_; }
  const sim::DeviceProfile& profile() const {
    return availability_.profile();
  }
  Rng& rng() { return rng_; }
  bool eligible() const { return eligible_; }
  std::uint64_t sessions_started() const { return sessions_started_; }
  std::uint64_t sessions_completed() const { return sessions_completed_; }
  // True from check-in until the session ends; an idle agent holds no
  // session state.
  bool in_session() const { return session_ != nullptr; }

  // Arms the agent: schedules eligibility toggles and check-in attempts.
  void Start();

 private:
  // Everything a running session needs; allocated at check-in and freed
  // when the session ends, so an idle device carries only a null pointer.
  struct Session;

  // --- lifecycle ---
  void ScheduleNextToggle();
  void OnToggle(bool now_eligible);
  void ScheduleCheckinPoll(Duration delay);
  void TryCheckin();
  void BeginSession(device::PopulationId population);

  // --- server link callbacks (all generation-guarded) ---
  server::DeviceLink MakeLink(std::uint64_t generation);
  void OnAssigned(std::uint64_t gen, const server::TaskAssignment& assignment);
  void OnRejected(std::uint64_t gen, const server::RejectionNotice& notice);
  void OnReportAck(std::uint64_t gen, const server::ReportAck& ack);
  void OnClosed(std::uint64_t gen);
  void OnSecAggDirectory(std::uint64_t gen, const server::SecAggDirectoryMsg&);
  void OnSecAggShares(std::uint64_t gen, const server::SecAggSharesMsg&);
  void OnSecAggUnmask(std::uint64_t gen, const server::SecAggUnmaskMsg&);

  // --- round execution ---
  void StartTraining(std::uint64_t gen);
  void FinishTraining(std::uint64_t gen);
  void BeginUpload(std::uint64_t gen);
  void MaybeSendMaskedInput(std::uint64_t gen);
  void SendSecAggUpload(std::uint64_t gen, std::uint64_t bytes,
                        std::function<void()> send);

  // --- bookkeeping ---
  void SetState(analytics::DeviceState s);
  void AddTrace(analytics::SessionEvent e);
  // Emits a device-sourced fact about the live session.
  void Emit(analytics::JournalEventKind kind, std::uint32_t count = 0,
            std::uint64_t bytes = 0);
  void Interrupt();                // eligibility lost mid-session
  void FailSession(const std::string& why);  // '*' error path
  void EndSession(bool completed);
  bool Active(std::uint64_t gen) const;

  // The always-resident part: what an idle device needs to decide when to
  // check in next.
  const Services* services_;
  sim::AvailabilityProcess availability_;  // holds the device's profile
  Rng rng_;
  bool eligible_ = false;
  bool poll_scheduled_ = false;
  analytics::DeviceState state_ = analytics::DeviceState::kIdle;
  std::uint64_t generation_ = 0;
  std::uint64_t sessions_started_ = 0;
  std::uint64_t sessions_completed_ = 0;
  device::MultiTenantScheduler scheduler_;
  device::ExampleStoreRegistry stores_;

  std::unique_ptr<Session> session_;
};

}  // namespace fl::core
