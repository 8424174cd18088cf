// FLSystem: the whole deployment in one object — fleet simulator, network,
// server actor stack, analytics — wired over a single deterministic event
// queue. This is the primary entry point of the library.
//
//   core::FLSystemConfig config;
//   core::FLSystem system(config);
//   system.AddTrainingTask("train", model, hyper, selector, round_config);
//   system.ProvisionData([](const sim::DeviceProfile& d,
//                           core::DeviceAgent& agent, Rng& rng, SimTime now) {
//     agent.GetOrCreateStore("default").AddBatch(...);
//   });
//   system.Start();
//   system.RunFor(Hours(24));
//   ... inspect system.stats(), system.model_store() ...
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/monitor_hub.h"
#include "src/core/config.h"
#include "src/core/device_agent.h"
#include "src/core/fleet_stats.h"
#include "src/ops/ops_plane.h"
#include "src/ops/round_ledger.h"
#include "src/protocol/adaptive.h"
#include "src/server/coordinator.h"
#include "src/server/selector.h"

namespace fl::core {

class FLSystem {
 public:
  using DataProvisioner = std::function<void(
      const sim::DeviceProfile&, DeviceAgent&, Rng&, SimTime)>;

  explicit FLSystem(FLSystemConfig config);
  ~FLSystem();

  FLSystem(const FLSystem&) = delete;
  FLSystem& operator=(const FLSystem&) = delete;

  // --- deployment definition (before Start) ---

  // Adds a training task; the first training task's initial parameters
  // become the population's global model.
  void AddTrainingTask(const std::string& name, const graph::Model& model,
                       const plan::TrainingHyperparams& hyper,
                       const plan::ExampleSelector& selector,
                       const protocol::RoundConfig& round_config,
                       Duration cadence = Seconds(10));

  // Adds an evaluation task over the same global model (Sec. 7.1:
  // "alternating between training and evaluation of a single model").
  void AddEvaluationTask(const std::string& name, const graph::Model& model,
                         const plan::ExampleSelector& selector,
                         const protocol::RoundConfig& round_config,
                         Duration cadence = Seconds(10));

  // Installs the per-device data provisioner; called once per device at
  // start and every config.data_refresh_period thereafter.
  void ProvisionData(DataProvisioner provisioner);

  // Enables adaptive tuning of the round windows (Sec. 11 "Convergence
  // Time"): a controller observes every finished round through the
  // analytics layer and pushes adjusted configurations to the Coordinator.
  // Applies to all tasks; call before or after Start().
  void EnableAdaptiveWindows(
      protocol::AdaptiveWindowController::Params params = {});
  const protocol::AdaptiveWindowController* adaptive_controller() const {
    return adaptive_ ? &adaptive_->controller : nullptr;
  }

  // Spawns the server actors and arms every device agent.
  void Start();

  // --- execution ---
  void RunFor(Duration d);
  void RunUntil(SimTime t);
  SimTime now() const;

  // --- failure injection (Sec. 4.4 experiments) ---
  void CrashCoordinator();
  void CrashRandomSelector();
  // Crashes the master aggregator / an aggregator of the active round, if
  // any. Returns false when no such actor is live.
  bool CrashActiveMaster();

  // --- introspection ---
  FleetStats& stats() { return *stats_; }
  const FleetStats& stats() const { return *stats_; }
  // Sec. 5 automatic monitors, fed from MetricsRegistry snapshots on each
  // stats-sampler tick (only advances while telemetry is enabled). A default
  // watch on the device-rejection rate is installed at construction; add
  // more watches before Start().
  analytics::MonitorHub& monitors() { return monitor_hub_; }
  const analytics::MonitorHub& monitors() const { return monitor_hub_; }
  // The live ops plane; nullptr unless config.statusz_port was set (or
  // FL_STATUSZ in the environment) and the server started successfully.
  ops::OpsPlane* ops_plane() { return ops_.get(); }
  const ops::OpsPlane* ops_plane() const { return ops_.get(); }
  // Always present; enabled (writes bundles) only when config.bundle_dir is
  // non-empty. Captures fire on abandoned rounds and unhealthy transitions.
  ops::DiagnosticBundler& bundler() { return *bundler_; }
  const ops::DiagnosticBundler& bundler() const { return *bundler_; }
  // Always folding this deployment's events (recording only while the ops
  // plane is up); /rounds serves from it.
  ops::RoundLedger& round_ledger() { return *round_ledger_; }
  server::ModelStore& model_store() { return *model_store_; }
  actor::ActorSystem& actor_system() { return *actors_; }
  server::ServerFrontend& frontend() { return *frontend_; }
  std::vector<DeviceAgent*> devices();
  std::size_t device_count() const { return agents_.size(); }
  ActorId coordinator_id() const { return coordinator_; }
  const std::vector<ActorId>& selector_ids() const { return selector_ids_; }
  sim::EventQueue& queue() { return queue_; }
  const FLSystemConfig& config() const { return config_; }

 private:
  ActorId SpawnCoordinator();
  void ScheduleStatsSampler();
  void ScheduleDataRefresh();
  void ScheduleAdaptiveTick();

  FLSystemConfig config_;
  Rng rng_;
  sim::EventQueue queue_;
  sim::DiurnalCurve curve_;
  sim::NetworkModel network_;
  std::unique_ptr<actor::SimContext> context_;
  std::unique_ptr<actor::ActorSystem> actors_;

  server::LockService locks_;
  std::unique_ptr<server::ModelStore> model_store_;
  std::unique_ptr<FleetStats> stats_;
  std::unique_ptr<ops::RoundLedger> round_ledger_;
  std::unique_ptr<analytics::EventBus> events_;
  std::unique_ptr<ops::DiagnosticBundler> bundler_;
  std::unique_ptr<ops::OpsPlane> ops_;
  analytics::MonitorHub monitor_hub_;
  std::unique_ptr<protocol::PaceSteeringPolicy> pace_;
  server::ServerContext server_context_;
  device::AttestationAuthority attestation_;
  std::unique_ptr<server::ServerFrontend> frontend_;

  std::vector<server::FLTaskDescriptor> tasks_;  // master copy for respawn
  ActorId coordinator_;
  std::vector<ActorId> selector_ids_;

  DeviceAgent::Services device_services_;  // shared by every agent
  std::vector<std::unique_ptr<DeviceAgent>> agents_;
  DataProvisioner provisioner_;
  bool started_ = false;
  std::uint64_t next_task_id_ = 1;

  struct AdaptiveState {
    protocol::AdaptiveWindowController controller;
    protocol::RoundConfig shadow_config;  // last pushed configuration
    std::size_t log_cursor = 0;           // rounds already consumed
    bool shadow_initialized = false;
  };
  std::optional<AdaptiveState> adaptive_;
};

}  // namespace fl::core
