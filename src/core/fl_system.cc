#include "src/core/fl_system.h"
#include <algorithm>


#include "src/common/logging.h"
#include "src/graph/registry.h"
#include "src/ops/crash_handler.h"
#include "src/profiler/start.h"
#include "src/server/master_aggregator.h"

namespace fl::core {
namespace {
constexpr std::uint64_t kNetworkSeedSalt = 0x6e657477726bULL;   // "networ"
constexpr std::uint64_t kAttestSeedSalt = 0x61747465737421ULL;  // "attest!"
}  // namespace

FLSystem::FLSystem(FLSystemConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      queue_(config_.event_queue_impl),
      curve_(config_.diurnal),
      network_(config_.network, config_.seed ^ kNetworkSeedSalt),
      attestation_(config_.seed ^ kAttestSeedSalt) {
  context_ = std::make_unique<actor::SimContext>(queue_);
  actors_ = std::make_unique<actor::ActorSystem>(*context_);
  stats_ = std::make_unique<FleetStats>(SimTime{0}, config_.stats_bucket);
  pace_ = std::make_unique<protocol::PaceSteeringPolicy>(config_.pace,
                                                         &curve_);
  frontend_ = std::make_unique<server::ServerFrontend>(
      actors_.get(), &server_context_, &attestation_);

  server_context_.locks = &locks_;
  // Every server and device fact is emitted once through events_: the
  // process-wide consumers (fl_server_* counters, flight ring, journal) see
  // it first, then this deployment's folds — FleetStats (Fig. 5–9
  // analytics) and the RoundLedger (/rounds, recording while the ops plane
  // is up).
  round_ledger_ = std::make_unique<ops::RoundLedger>();
  events_ = std::make_unique<analytics::EventBus>(
      [this](const analytics::Event& e) {
        stats_->OnEvent(e);
        round_ledger_->OnEvent(e);
      });
  // Diagnostic bundler: disabled (dir empty) unless configured, but always
  // constructed so triggers can be wired unconditionally. The abandoned-
  // round hook fires even with the ops plane off.
  ops::DiagnosticBundler::Options bundle_opts = config_.bundle_options;
  bundle_opts.dir = config_.bundle_dir;
  bundler_ = std::make_unique<ops::DiagnosticBundler>(
      std::move(bundle_opts),
      ops::DiagnosticBundler::Sources{.ledger = round_ledger_.get(),
                                      .health = nullptr});
  round_ledger_->set_on_abandoned(
      [this](SimTime t, RoundId round, protocol::RoundOutcome outcome) {
        bundler_->Capture(
            "round_abandoned",
            "round=" + std::to_string(round.value) +
                " outcome=" + protocol::RoundOutcomeName(outcome),
            t);
      });
  server_context_.events = events_.get();
  server_context_.pace = pace_.get();
  server_context_.rng = &rng_;
  server_context_.estimated_population = config_.population.device_count;

  // Default Sec. 5 watch: a spike in per-sample device rejections is the
  // paper's canonical anomaly ("drop out rates ... much higher than
  // expected"). min_sigma floors the noise band well above single-device
  // blips — a healthy deployment's baseline is near zero, where the
  // default 1e-6 floor would alert on every stray rejection. Users can add
  // more watches via monitors().
  analytics::DeviationMonitor::Params reject_watch;
  reject_watch.min_sigma = 10.0;
  monitor_hub_.WatchCounterDelta("fl_server_devices_rejected_total",
                                 reject_watch);
}

FLSystem::~FLSystem() {
  // Stop HTTP workers before the members their handlers read go away.
  if (ops_ != nullptr) ops_->Stop();
}

void FLSystem::AddTrainingTask(const std::string& name,
                               const graph::Model& model,
                               const plan::TrainingHyperparams& hyper,
                               const plan::ExampleSelector& selector,
                               const protocol::RoundConfig& round_config,
                               Duration cadence) {
  FL_CHECK_MSG(!started_, "tasks must be added before Start()");
  const plan::FLPlan default_plan =
      plan::MakeTrainingPlan(model, name, hyper, selector);
  auto plans = plan::VersionedPlanSet::Generate(
      default_plan, graph::kOldestSupportedRuntime);
  FL_CHECK_MSG(plans.ok(), plans.status().ToString());

  if (model_store_ == nullptr) {
    // The population's singleton global model (Sec. 2.2).
    model_store_ = std::make_unique<server::ModelStore>(model.init_params);
    server_context_.model_store = model_store_.get();
  } else {
    FL_CHECK_MSG(model_store_->Latest().CompatibleWith(model.init_params),
                 "all tasks of a population must share the model schema");
  }

  server::FLTaskDescriptor task;
  task.id = TaskId{next_task_id_++};
  task.name = name;
  task.plans = std::move(plans).value();
  task.round_config = round_config;
  task.round_cadence = cadence;
  tasks_.push_back(std::move(task));
}

void FLSystem::AddEvaluationTask(const std::string& name,
                                 const graph::Model& model,
                                 const plan::ExampleSelector& selector,
                                 const protocol::RoundConfig& round_config,
                                 Duration cadence) {
  FL_CHECK_MSG(!started_, "tasks must be added before Start()");
  FL_CHECK_MSG(model_store_ != nullptr,
               "add a training task before evaluation tasks");
  const plan::FLPlan default_plan =
      plan::MakeEvaluationPlan(model, name, selector);
  auto plans = plan::VersionedPlanSet::Generate(
      default_plan, graph::kOldestSupportedRuntime);
  FL_CHECK_MSG(plans.ok(), plans.status().ToString());

  server::FLTaskDescriptor task;
  task.id = TaskId{next_task_id_++};
  task.name = name;
  task.plans = std::move(plans).value();
  task.round_config = round_config;
  task.round_cadence = cadence;
  tasks_.push_back(std::move(task));
}

void FLSystem::ProvisionData(DataProvisioner provisioner) {
  provisioner_ = std::move(provisioner);
}

void FLSystem::EnableAdaptiveWindows(
    protocol::AdaptiveWindowController::Params params) {
  const bool arm_now = started_ && !adaptive_.has_value();
  adaptive_.emplace(AdaptiveState{
      protocol::AdaptiveWindowController(params), {}, 0, false});
  if (arm_now) ScheduleAdaptiveTick();
}

void FLSystem::ScheduleAdaptiveTick() {
  queue_.After(Minutes(1), [this] {
    if (!adaptive_.has_value()) return;
    AdaptiveState& state = *adaptive_;
    if (!state.shadow_initialized && !tasks_.empty()) {
      state.shadow_config = tasks_.front().round_config;
      state.shadow_initialized = true;
    }
    const auto& log = stats_->round_log();
    bool changed = false;
    for (; state.log_cursor < log.size(); ++state.log_cursor) {
      const RoundSummary& summary = log[state.log_cursor];
      protocol::RoundObservation obs;
      obs.outcome = summary.outcome;
      obs.selection_duration = summary.selection_duration;
      obs.round_duration = summary.round_duration;
      obs.completed = summary.contributors;
      const auto it = stats_->per_round().find(summary.round);
      if (it != stats_->per_round().end()) {
        obs.completed = it->second.completed;
        obs.dropped = it->second.dropped;
      }
      state.shadow_config =
          state.controller.Update(state.shadow_config, obs);
      changed = true;
    }
    if (changed && coordinator_.value != 0) {
      actors_->Send(ActorId{}, coordinator_,
                    server::MsgUpdateRoundConfig{TaskId{0},
                                                 state.shadow_config});
    }
    ScheduleAdaptiveTick();
  });
}

ActorId FLSystem::SpawnCoordinator() {
  // Never spawn a duplicate while the current instance is healthy (the
  // lock's re-entrant owner semantics would otherwise admit one).
  if (coordinator_.value != 0 && actors_->IsAlive(coordinator_)) {
    return ActorId{};
  }
  // Exactly-once semantics via the shared lock service (Sec. 4.2/4.4).
  auto epoch = locks_.Acquire(config_.population_name, "coordinator",
                              queue_.now());
  if (!epoch.ok()) return ActorId{};

  server::CoordinatorActor::Init init;
  init.population = config_.population_name;
  init.tasks = tasks_;  // copy: the system retains the master list
  init.selectors = selector_ids_;
  init.context = &server_context_;
  init.tick_period = config_.coordinator_tick;
  init.max_waiting_per_selector = config_.max_waiting_per_selector;
  init.pipelined_selection = config_.pipelined_selection;
  init.lock_epoch = *epoch;
  coordinator_ = actors_->Spawn<server::CoordinatorActor>("coordinator",
                                                          std::move(init));
  return coordinator_;
}

void FLSystem::Start() {
  FL_CHECK_MSG(!started_, "Start() called twice");
  FL_CHECK_MSG(!tasks_.empty(), "no tasks configured");
  started_ = true;

  // Continuous profiling (FL_PROFILER=1): arm the SIGPROF sampler and heap
  // sampling before any actor runs so every round is covered. One branch
  // when the env var is unset.
  if (const Status s = profiler::StartFromEnv(); !s.ok()) {
    FL_LOG(Warning) << "profiler disabled: " << s.ToString();
  }

  // Boot the ops plane first so telemetry + the round ledger are recording
  // before any actor reports. A failed bind (port taken) degrades to
  // "plane off" rather than failing the deployment.
  if (config_.statusz_port.has_value()) {
    ops::OpsPlane::Options ops_opts;
    ops_opts.port = *config_.statusz_port;
    ops_opts.population = config_.population_name;
    ops_opts.health = config_.health_policy;
    ops_ = std::make_unique<ops::OpsPlane>(std::move(ops_opts),
                                           round_ledger_.get(),
                                           bundler_.get());
    if (const Status s = ops_->Start(); !s.ok()) {
      FL_LOG(Warning) << "ops plane disabled: " << s.ToString();
      ops_.reset();
    } else {
      bundler_->set_health_source(&ops_->health());
      FL_LOG(Info) << "ops plane serving on http://127.0.0.1:"
                   << ops_->port();
    }
  }

  // Abnormal-exit forensics: once a bundle dir is configured, fatal signals
  // dump the flight recorder there and the journal tail is flushed at exit.
  if (!config_.bundle_dir.empty()) {
    ops::CrashHandlerOptions crash_opts;
    crash_opts.flight_dump_path = config_.bundle_dir + "/crash-flight.log";
    ops::InstallCrashHandler(crash_opts);
  }

  // Selectors first (the coordinator greets them on start).
  for (std::size_t i = 0; i < config_.selector_count; ++i) {
    server::SelectorActor::Init init;
    init.population = config_.population_name;
    init.coordinator = ActorId{};  // learned via MsgCoordinatorHello
    init.context = &server_context_;
    init.max_waiting = config_.max_waiting_per_selector;
    init.respawn_coordinator = [this]() -> ActorId {
      return SpawnCoordinator();
    };
    const ActorId sel = actors_->Spawn<server::SelectorActor>(
        "selector-" + std::to_string(i), std::move(init));
    selector_ids_.push_back(sel);
    frontend_->AddSelector(sel);
  }
  SpawnCoordinator();
  FL_CHECK_MSG(coordinator_.value != 0, "failed to acquire population lock");

  // The device fleet.
  std::vector<sim::DeviceProfile> profiles =
      sim::GeneratePopulation(config_.population, rng_);
  agents_.reserve(profiles.size());
  const std::string store_name =
      tasks_.front().plans.plans().begin()->second.device.selector.store_name;
  device_services_ = DeviceAgent::Services{
      .queue = &queue_,
      .network = &network_,
      .curve = &curve_,
      .frontend = frontend_.get(),
      .attestation = &attestation_,
      .stats = stats_.get(),
      .events = events_.get(),
      .config = &config_};
  for (const sim::DeviceProfile& profile : profiles) {
    auto agent = std::make_unique<DeviceAgent>(profile, &device_services_);
    agent->Configure(config_.population_name, store_name,
                     config_.device_checkin_cadence);
    if (provisioner_) {
      provisioner_(profile, *agent, agent->rng(), queue_.now());
    }
    agent->Start();
    agents_.push_back(std::move(agent));
  }

  ScheduleStatsSampler();
  if (config_.data_refresh_period.millis > 0 && provisioner_) {
    ScheduleDataRefresh();
  }
  if (adaptive_.has_value()) ScheduleAdaptiveTick();
}

void FLSystem::ScheduleStatsSampler() {
  // Sample often relative to the bucket width so short-lived states
  // (participating lasts a minute or two) are measured, not aliased.
  const Duration period =
      std::min(Minutes(1), Duration{config_.stats_bucket.millis / 2});
  queue_.After(period, [this] {
    stats_->SampleStates(queue_.now());
    if (telemetry::Enabled()) {
      auto& registry = telemetry::MetricsRegistry::Global();
      registry.GetGauge("fl_sim_live_actors")
          ->Set(static_cast<double>(actors_->live_actors()));
      registry.GetGauge("fl_sim_event_queue_pending")
          ->Set(static_cast<double>(queue_.pending()));
      const auto& qs = queue_.stats();
      registry.GetGauge("fl_sim_events_scheduled_total")
          ->Set(static_cast<double>(qs.scheduled));
      registry.GetGauge("fl_sim_events_fired_total")
          ->Set(static_cast<double>(qs.fired));
      registry.GetGauge("fl_sim_events_cancelled_total")
          ->Set(static_cast<double>(qs.cancelled));
      registry.GetGauge("fl_sim_events_cascaded_total")
          ->Set(static_cast<double>(qs.cascaded));
      const auto occupancy = queue_.LevelOccupancy();
      for (std::size_t level = 0; level < occupancy.size(); ++level) {
        const std::string name =
            level < sim::EventQueue::kLevels
                ? "fl_sim_wheel_level_" + std::to_string(level) + "_live"
                : "fl_sim_wheel_overflow_live";
        registry.GetGauge(name)
            ->Set(static_cast<double>(occupancy[level]));
      }
      // One snapshot per tick feeds the monitors AND the ops plane
      // (window store, health evaluator, /statusz sim clock).
      const telemetry::MetricsSnapshot snapshot = registry.Snapshot();
      monitor_hub_.Poll(queue_.now(), snapshot);
      if (ops_ != nullptr) ops_->Tick(queue_.now(), snapshot);
    }
    ScheduleStatsSampler();
  });
}

void FLSystem::ScheduleDataRefresh() {
  queue_.After(config_.data_refresh_period, [this] {
    for (auto& agent : agents_) {
      provisioner_(agent->profile(), *agent, agent->rng(), queue_.now());
    }
    ScheduleDataRefresh();
  });
}

void FLSystem::RunFor(Duration d) { queue_.RunFor(d); }
void FLSystem::RunUntil(SimTime t) { queue_.RunUntil(t); }
SimTime FLSystem::now() const { return queue_.now(); }

void FLSystem::CrashCoordinator() {
  if (coordinator_.value != 0) {
    // Drop the lease so a respawn can acquire it immediately (the crashed
    // owner will never renew; expiring naturally would also work).
    const auto epoch = locks_.Epoch(config_.population_name, queue_.now());
    actors_->Crash(coordinator_);
    if (epoch.has_value()) {
      (void)locks_.Release(config_.population_name, "coordinator", *epoch);
    }
  }
}

void FLSystem::CrashRandomSelector() {
  if (selector_ids_.empty()) return;
  const std::size_t idx = rng_.UniformInt(selector_ids_.size());
  actors_->Crash(selector_ids_[idx]);
}

bool FLSystem::CrashActiveMaster() {
  auto* coord = actors_->Get<server::CoordinatorActor>(coordinator_);
  if (coord == nullptr) return false;
  const auto master = coord->active_master();
  if (!master.has_value()) return false;
  // Masters watch-notify the coordinator, which restarts the round
  // (Sec. 4.4).
  actors_->Crash(*master);
  return true;
}

std::vector<DeviceAgent*> FLSystem::devices() {
  std::vector<DeviceAgent*> out;
  out.reserve(agents_.size());
  for (auto& a : agents_) out.push_back(a.get());
  return out;
}

}  // namespace fl::core
