// DeviceAgent check-in path against a real ServerFrontend and Selector. The
// device agents run on their own event queue and the server actors on
// another, advanced in lockstep, so the device queue's counters see only the
// device's own callbacks.
#include <gtest/gtest.h>

#include "src/actor/context.h"
#include "src/core/device_agent.h"
#include "src/server/selector.h"

namespace fl::core {
namespace {

struct CheckinHarness {
  static constexpr std::size_t kDevices = 40;

  explicit CheckinHarness(std::size_t max_waiting) {
    config.population.device_count = kDevices;
    config.population.non_genuine_fraction = 0.1;
    config.device_checkin_cadence = Minutes(1);
    config.device_give_up = Minutes(3);
    server_context.events = &events;
    server_context.pace = &pace;
    server_context.rng = &server_rng;
    server_context.estimated_population = kDevices;

    server::SelectorActor::Init init;
    init.population = config.population_name;
    init.context = &server_context;
    init.max_waiting = max_waiting;
    init.max_hold = Minutes(2);
    selector = system.Spawn<server::SelectorActor>("selector-0",
                                                   std::move(init));
    frontend.AddSelector(selector);

    services.queue = &device_queue;
    services.network = &network;
    services.curve = &curve;
    services.frontend = &frontend;
    services.attestation = &attestation;
    services.stats = &stats;
    services.events = &events;
    services.config = &config;
    Rng rng(11);
    for (const sim::DeviceProfile& profile :
         sim::GeneratePopulation(config.population, rng)) {
      agents.push_back(std::make_unique<DeviceAgent>(profile, &services));
      agents.back()->Configure(config.population_name, "default",
                               config.device_checkin_cadence);
      agents.back()->Start();
    }
  }

  void RunFor(Duration span) {
    const SimTime end = device_queue.now() + span;
    for (SimTime t = device_queue.now(); t < end; t = t + Millis(50)) {
      device_queue.RunUntil(t);
      server_queue.RunUntil(t);
    }
  }

  std::uint64_t SessionsStarted() const {
    std::uint64_t n = 0;
    for (const auto& agent : agents) n += agent->sessions_started();
    return n;
  }

  FLSystemConfig config;
  sim::EventQueue device_queue;
  sim::EventQueue server_queue;
  actor::SimContext server_ctx{server_queue};
  actor::ActorSystem system{server_ctx};
  sim::DiurnalCurve curve{config.diurnal};
  sim::NetworkModel network{config.network, 5};
  protocol::PaceSteeringPolicy pace{config.pace, &curve};
  device::AttestationAuthority attestation{99};
  FleetStats stats{SimTime{0}, Minutes(10)};
  analytics::EventBus events{
      [this](const analytics::Event& e) { stats.OnEvent(e); }};
  Rng server_rng{3};
  server::ServerContext server_context;
  server::ServerFrontend frontend{&system, &server_context, &attestation};
  ActorId selector;
  DeviceAgent::Services services;
  std::vector<std::unique_ptr<DeviceAgent>> agents;
};

// A check-in schedules the attestation handshake, the give-up timer and, on
// rejection, the delayed RejectionNotice delivery; each must fit the event
// node's inline callback buffer.
TEST(DeviceAgentTest, CheckinsScheduleNoHeapCallbacks) {
  // A waiting pool of 2 both admits devices and turns most of them away.
  CheckinHarness h(/*max_waiting=*/2);
  h.RunFor(Hours(3));
  const auto* sel = h.system.Get<server::SelectorActor>(h.selector);
  ASSERT_NE(sel, nullptr);
  EXPECT_GT(sel->total_accepted(), 10u);
  EXPECT_GT(sel->total_rejected(), 10u);
  EXPECT_GT(h.frontend.attestation_failures(), 0u);
  EXPECT_GT(h.SessionsStarted(), sel->total_accepted());
  EXPECT_GT(h.device_queue.stats().fired, 100u);
  EXPECT_EQ(h.device_queue.stats().heap_callbacks, 0u);
}

// An idle device keeps only its hot state; the session lives on the heap
// while it runs.
TEST(DeviceAgentTest, IdleAgentFitsInHalfAKilobyte) {
  EXPECT_LE(sizeof(DeviceAgent), 512u);
}

// A device whose check-in fails attestation is turned away at once and backs
// off for hours; from then on it must hold no session state at all.
TEST(DeviceAgentTest, RejectedCheckinHoldsNoSession) {
  CheckinHarness h(/*max_waiting=*/2);
  h.RunFor(Hours(3));
  std::size_t rejected = 0;
  for (const auto& agent : h.agents) {
    if (agent->profile().genuine || agent->sessions_started() == 0) continue;
    ++rejected;
    EXPECT_FALSE(agent->in_session()) << agent->profile().id.value;
    EXPECT_EQ(agent->sessions_completed(), 0u);
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(rejected, h.frontend.attestation_failures());
}

}  // namespace
}  // namespace fl::core
