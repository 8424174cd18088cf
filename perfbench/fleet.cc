// Fleet workloads: a whole core::FLSystem (simulated devices, server actor
// stack, analytics) driven as a closed loop by this thread.
//
//   fleet_checkin  100k devices, plain FedAvg on a tiny model: check-in bound
//   fleet_secure   20k devices, SecAgg groups on a ~2k-parameter model
//
// A run builds the fleet, simulates an untimed warm-up window and then a
// timed window of fixed simulated length, several times over; the
// repetitions' outputs must agree. Set-up time is their median, throughput
// comes from the fastest window.
// The traced run follows every untraced repetition with a traced one on a
// second fleet, runtime telemetry switched on for its timed window only, and
// reads the per-layer ledger, per traced window, from public accessors and
// the actor dispatch histograms.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "perfbench/bench.h"
#include "src/common/json_writer.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/fedavg/codec.h"
#include "src/graph/model_zoo.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"

namespace fl::perfbench {
namespace {

struct FleetShape {
  std::size_t devices = 0;
  bool secure = false;
  std::size_t goal = 25;
  std::size_t per_aggregator = 20;
  std::size_t features = 8;
  std::size_t classes = 4;
  std::size_t examples = 30;  // Blobs examples per device, provisioned once
  double ring_keep = 1.0;     // SecAgg keep_fraction
  Duration warmup = Hours(1);
  // Simulated minutes in the timed window per requested second; calibrated
  // so one requested second is about one wall second on the reference
  // machine (README.md).
  double sim_minutes_per_second = 60;
  // The timed phase is split into at least three repetitions (set-up,
  // warm-up, window), each window at most this long.
  double max_window_minutes = 150;
};

FleetShape ShapeFor(bool secure, bool tiny) {
  FleetShape s;
  s.secure = secure;
  if (!secure) {
    s.devices = tiny ? 4000 : 100000;
    s.sim_minutes_per_second = 60;
  } else {
    s.devices = tiny ? 3000 : 20000;
    s.goal = tiny ? 15 : 100;
    s.per_aggregator = tiny ? 8 : 24;
    s.features = 128;
    s.classes = 32;
    s.examples = 20;
    s.ring_keep = 0.5;
    s.sim_minutes_per_second = 60;
    s.max_window_minutes = 200;  // stays inside the population's night
  }
  if (tiny) s.warmup = Minutes(30);
  return s;
}

// FLSystemConfig set field by field: the benchmark pins everything that
// could otherwise come from the environment or from shared bench helpers.
core::FLSystemConfig FleetConfig(const FleetShape& shape, std::uint64_t seed) {
  core::FLSystemConfig config;
  config.seed = seed;
  config.event_queue_impl = sim::EventQueue::Impl::kWheel;
  config.statusz_port = std::nullopt;
  config.bundle_dir.clear();
  config.population.device_count = shape.devices;
  config.population.tz_weights = {0.7, 0.2, 0.1};
  config.population.tz_offsets = {Hours(0), Hours(-1), Hours(-2)};

  config.population.mean_examples_per_sec = 1.5;
  config.diurnal.swing = 8.0;
  config.selector_count = 4;
  config.coordinator_tick = Seconds(15);
  config.stats_bucket = Minutes(30);
  config.pace.rendezvous_period = Minutes(3);
  config.pace.small_population_threshold = 100000;
  config.device_checkin_cadence = Minutes(45);
  config.data_refresh_period = Millis(0);  // provision once, at Start
  return config;
}

protocol::RoundConfig RoundFor(const FleetShape& shape) {
  protocol::RoundConfig rc;
  rc.goal_count = shape.goal;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(5);
  rc.min_selection_fraction = 0.6;
  rc.reporting_deadline = Minutes(10);
  rc.min_reporting_fraction = 0.6;
  rc.devices_per_aggregator = shape.per_aggregator;
  if (shape.secure) {
    rc.aggregation = protocol::AggregationMode::kSecure;
    rc.secagg.ring_bits = 16;
    rc.secagg.keep_fraction = shape.ring_keep;
  }
  return rc;
}

// Time spent in the benchmark-owned data provisioner.
struct ProvisionLedger {
  std::uint64_t calls = 0;
  double seconds = 0;
};

struct Fleet {
  std::unique_ptr<core::FLSystem> system;
  double build_s = 0;  // constructor + AddTrainingTask + ProvisionData
  double start_s = 0;  // Start(): spawns actors, builds and provisions devices
};

Fleet BuildFleet(const FleetShape& shape, std::uint64_t seed,
                 ProvisionLedger* ledger) {
  Fleet fleet;
  const auto t0 = Clock::now();
  fleet.system = std::make_unique<core::FLSystem>(FleetConfig(shape, seed));
  Rng model_rng(seed ^ 0x6d6f64656cull);
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  fleet.system->AddTrainingTask(
      "train",
      graph::BuildLogisticRegression(shape.features, shape.classes, model_rng),
      hyper, {}, RoundFor(shape), Seconds(30));
  // The learning task (class centres) is fixed; the seed draws each
  // device's examples from it, so the loss moves with the sample, not with
  // how separable a freshly drawn task happens to be.
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = shape.classes,
                        .feature_dim = shape.features},
      /*seed=*/5);
  const std::size_t per_device = shape.examples;
  const std::uint64_t sample_seed = seed * 0x9E3779B97F4A7C15ull;
  fleet.system->ProvisionData(
      [blobs, per_device, sample_seed, ledger](
          const sim::DeviceProfile& profile, core::DeviceAgent& agent, Rng&,
          SimTime now) {
        const auto p0 = ledger != nullptr ? Clock::now() : Clock::time_point{};
        agent.GetOrCreateStore("default").AddBatch(blobs->UserExamples(
            profile.id.value ^ sample_seed, per_device, now));
        if (ledger != nullptr) {
          ++ledger->calls;
          ledger->seconds += SecondsSince(p0);
        }
      });
  fleet.build_s = SecondsSince(t0);
  const auto t1 = Clock::now();
  fleet.system->Start();
  fleet.start_s = SecondsSince(t1);
  return fleet;
}

// Counters read at the start and at the end of the timed window.
struct Counters {
  sim::EventQueue::Stats events;
  std::uint64_t messages = 0;
  std::uint64_t checkins = 0;
  std::uint64_t attestation_failures = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::size_t rounds_committed = 0;
  std::size_t rounds_abandoned = 0;
  std::size_t history = 0;  // ModelStore commits so far
};

Counters Read(core::FLSystem& system) {
  Counters c;
  c.events = system.queue().stats();
  c.messages = system.actor_system().messages_delivered();
  c.checkins = system.frontend().checkins();
  c.attestation_failures = system.frontend().attestation_failures();
  for (const core::DeviceAgent* agent : system.devices()) {
    c.sessions_started += agent->sessions_started();
    c.sessions_completed += agent->sessions_completed();
  }
  c.rounds_committed = system.stats().rounds_committed();
  c.rounds_abandoned = system.stats().rounds_abandoned();
  c.history = system.model_store().history().size();
  return c;
}

struct Outcome {
  double run_s = 0;
  Counters before, after;
  std::uint64_t rounds_attempted = 0;  // whole run
  std::uint64_t rounds_committed = 0;
  std::uint64_t updates_landed = 0;    // whole run
  std::uint64_t window_updates = 0;    // rounds committed in the window
  std::uint64_t upload_bytes = 0;
  double train_loss = 0;
  std::string fingerprint;
};

// Warm-up, then the timed window; checks the fleet's outputs into `report`.
Outcome Drive(core::FLSystem& system, const FleetShape& shape,
              Duration window, bool traced, Report& report) {
  system.RunFor(shape.warmup);
  Outcome out;
  out.before = Read(system);
  if (traced) telemetry::SetEnabled(true);
  const auto t0 = Clock::now();
  if (traced) {
    // The fleet's spans are not part of the ledger; dropping them hourly
    // keeps the tracer's buffer from growing with the fleet.
    for (Duration done = Millis(0); done < window; done = done + Hours(1)) {
      system.RunFor(std::min(Hours(1), window - done));
      telemetry::Tracer::Global().Clear();
    }
  } else {
    system.RunFor(window);
  }
  out.run_s = SecondsSince(t0);
  if (traced) telemetry::SetEnabled(false);
  out.after = Read(system);

  const core::FleetStats& stats = system.stats();
  std::uint64_t participant_completions = 0;
  for (const core::RoundSummary& round : stats.round_log()) {
    ++out.rounds_attempted;
    if (round.outcome != protocol::RoundOutcome::kCommitted) continue;
    ++out.rounds_committed;
    out.updates_landed += round.contributors;
    const auto it = stats.per_round().find(round.round);
    if (it != stats.per_round().end()) {
      participant_completions += it->second.completed;
    }
  }
  const auto& history = system.model_store().history();
  std::uint64_t history_contributors = 0;
  for (const auto& record : history) history_contributors += record.contributors;
  double loss_sum = 0;
  std::size_t loss_rounds = 0;
  for (std::size_t i = out.before.history; i < history.size(); ++i) {
    out.window_updates += history[i].contributors;
    const auto loss = history[i].metrics.find("loss");
    if (loss != history[i].metrics.end()) {
      loss_sum += loss->second.mean;
      ++loss_rounds;
    }
  }
  out.train_loss = loss_rounds > 0 ? loss_sum / static_cast<double>(loss_rounds)
                                   : 0;
  out.upload_bytes = stats.total_upload_bytes();

  const Checkpoint& model = system.model_store().Latest();
  bool finite = true;
  for (const auto& [name, tensor] : model.tensors()) {
    for (float v : tensor.data()) finite = finite && std::isfinite(v);
  }
  out.fingerprint = Fingerprint(
      ModelCrc(model),
      {{"events", out.after.events.fired},
       {"rounds", out.rounds_attempted},
       {"committed", out.rounds_committed},
       {"updates", out.updates_landed},
       {"upload_bytes", out.upload_bytes}});

  report.Check(out.rounds_committed > 0, "fleet committed no round");
  report.Check(out.window_updates > 0,
               "no round committed inside the timed window");
  report.Check(finite, "global model has a non-finite parameter");
  report.Check(out.updates_landed == history_contributors,
               "FleetStats and ModelStore disagree on contributors");
  // A plain update lands when its Aggregator accepts it. A secure one is
  // recorded complete once its masked input is in, but a group whose SecAgg
  // instance fails drops out of the round, so it may not land.
  report.Check(shape.secure ? participant_completions >= out.updates_landed
                            : participant_completions == out.updates_landed,
               "participant completions (" +
                   std::to_string(participant_completions) +
                   ") do not match contributors of committed rounds (" +
                   std::to_string(out.updates_landed) + ")");
  report.Check(loss_rounds > 0 && std::isfinite(out.train_loss),
               "no finite training loss in the timed window");
  return out;
}

// Busy seconds, message count and dispatch percentiles of one actor type per
// traced window, from the dispatch histogram the actor runtime fills while
// telemetry is on, which holds the run's `windows` traced windows.
// `type` is the slug the runtime derives from the actor's name ("master" for
// "master-r12"); `label` is the ledger's name for it.
void AddServerType(Report& report, const std::string& label,
                   const std::string& type, double windows) {
  const telemetry::Histogram* h =
      telemetry::MetricsRegistry::Global().GetHistogram(
          "fl_actor_dispatch_micros_" + type,
          telemetry::HistogramOptions{1.0, 2.0, 24});
  const std::string prefix = "server." + label + ".";
  report.Add(prefix + "busy_s", h->Sum() / 1e6 / windows, "s");
  report.Add(prefix + "messages", static_cast<double>(h->Count()) / windows,
             "count");
  report.Add(prefix + "dispatch_us_p50", h->Count() > 0 ? h->Quantile(50) : 0,
             "us");
  report.Add(prefix + "dispatch_us_p99", h->Count() > 0 ? h->Quantile(99) : 0,
             "us");
}

// Σ dispatch time over every actor type the runtime saw.
double ServerBusySeconds() {
  double micros = 0;
  for (const auto& h : telemetry::MetricsRegistry::Global().Snapshot()
                           .histograms) {
    if (h.name.rfind("fl_actor_dispatch_micros_", 0) == 0) micros += h.sum;
  }
  return micros / 1e6;
}

// Sums over the traced windows of a run.
struct Traced {
  std::size_t windows = 0;
  double build_s = 0, start_s = 0, run_s = 0;
  // Each traced window's time over the untraced window run just before it.
  std::vector<double> pair_ratio;
  ProvisionLedger provision;  // whole fleets
  double provision_run_s = 0;  // inside warm-up and window
  Outcome last;  // counters of one window; every window's are identical
};

// The per-layer ledger: means per traced window.
Report Ledger(const FleetShape& shape, Duration window, const Traced& t) {
  Report report;
  const double n = static_cast<double>(t.windows);
  const Counters& a = t.last.before;
  const Counters& b = t.last.after;
  const double run_s = t.run_s / n;
  const double updates =
      std::max(1.0, static_cast<double>(t.last.window_updates));
  const double fired = static_cast<double>(b.events.fired - a.events.fired);
  const double checkins = static_cast<double>(b.checkins - a.checkins);

  report.Add("core.build_s", t.build_s / n, "s");
  report.Add("core.start_s", t.start_s / n, "s");
  report.Add("core.run_s", run_s, "s");
  report.Add("core.unattributed_s",
             run_s - (ServerBusySeconds() + t.provision_run_s) / n, "s");
  report.Add("data.provision_calls",
             static_cast<double>(t.provision.calls) / n, "count");
  report.Add("data.provision_s", t.provision.seconds / n, "s");
  const double started =
      static_cast<double>(b.sessions_started - a.sessions_started);
  const double completed =
      static_cast<double>(b.sessions_completed - a.sessions_completed);
  report.Add("device.sessions_started", started, "count");
  report.Add("device.sessions_completed", completed, "count");
  report.Add("device.session_complete_frac",
             started > 0 ? completed / started : 0, "ratio");
  report.Add("sim.events_fired", fired, "count");
  report.Add("sim.events_scheduled",
             static_cast<double>(b.events.scheduled - a.events.scheduled),
             "count");
  report.Add("sim.events_cancelled",
             static_cast<double>(b.events.cancelled - a.events.cancelled),
             "count");
  report.Add("sim.events_cascaded",
             static_cast<double>(b.events.cascaded - a.events.cascaded),
             "count");
  report.Add("sim.ns_per_event", fired > 0 ? run_s * 1e9 / fired : 0, "ns");
  report.Add("sim.events_per_update", fired / updates, "count");
  report.Add("sim.device_hours_per_s",
             static_cast<double>(shape.devices) *
                 (static_cast<double>(window.millis) / 3.6e6) / run_s,
             "h/s");
  const double messages = static_cast<double>(b.messages - a.messages);
  report.Add("actor.messages", messages, "count");
  report.Add("actor.messages_per_update", messages / updates, "count");
  AddServerType(report, "selector", "selector", n);
  AddServerType(report, "coordinator", "coordinator", n);
  AddServerType(report, "master_aggregator", "master", n);
  AddServerType(report, "aggregator", "aggregator", n);
  report.Add("server.frontend.checkins", checkins, "count");
  report.Add("server.frontend.checkins_per_update", checkins / updates,
             "count");
  report.Add("server.frontend.attestation_failures",
             static_cast<double>(b.attestation_failures -
                                 a.attestation_failures),
             "count");
  report.Add("server.rounds_committed",
             static_cast<double>(b.rounds_committed - a.rounds_committed),
             "count");
  report.Add("server.rounds_abandoned",
             static_cast<double>(b.rounds_abandoned - a.rounds_abandoned),
             "count");
  return report;
}

}  // namespace

Report RunFleet(const Options& options, bool secure) {
  const FleetShape shape = ShapeFor(secure, options.tiny);
  // The timed phase is `planned` repetitions of the same simulated window,
  // each on a freshly built fleet. Throughput comes from the fastest: the
  // repetitions do identical work, so they differ only by interference.
  const double total_minutes = options.seconds * shape.sim_minutes_per_second;
  const std::size_t planned = std::max<std::size_t>(
      3, static_cast<std::size_t>(
             std::ceil(total_minutes / shape.max_window_minutes)));
  const Duration window = Millis(static_cast<std::int64_t>(std::llround(
      total_minutes * 60'000.0 / static_cast<double>(planned))));
  Report report;

  // In a traced run every untraced window is followed by a traced one on a
  // second freshly built fleet, telemetry on for its window only; the pairs
  // together take about as long as an untraced run. The ledger gives means
  // per traced window. trace.overhead_frac is the median over the pairs of
  // traced ÷ untraced window time: the two windows of a pair run seconds
  // apart, so they mostly see the same machine speed.
  const std::size_t reps =
      options.trace ? std::max<std::size_t>(2, (planned + 1) / 2) : planned;
  const std::size_t rss_before = CurrentRssBytes();
  std::vector<double> setup_s, run_s;
  Fleet fleet;
  Outcome plain;
  Traced traced;
  for (std::size_t i = 0; i < reps; ++i) {
    fleet = Fleet{};  // release the previous fleet before building the next
    fleet = BuildFleet(shape, options.seed, nullptr);
    setup_s.push_back(fleet.build_s + fleet.start_s);
    Outcome rep = Drive(*fleet.system, shape, window, false, report);
    run_s.push_back(rep.run_s);
    std::fprintf(stderr, "repetition %zu: set-up %.3f s, window %.3f s\n",
                 i + 1, setup_s.back(), rep.run_s);
    if (i == 0) {
      plain = std::move(rep);
    } else {
      report.Check(rep.fingerprint == plain.fingerprint,
                   "repetition " + std::to_string(i + 1) +
                       " changed the fleet's outputs");
    }
    if (!options.trace) continue;

    fleet = Fleet{};
    ProvisionLedger provision;
    fleet = BuildFleet(shape, options.seed, &provision);
    const ProvisionLedger at_start = provision;
    Report traced_checks;
    Outcome rep_traced =
        Drive(*fleet.system, shape, window, true, traced_checks);
    std::fprintf(stderr, "traced repetition %zu: window %.3f s\n", i + 1,
                 rep_traced.run_s);
    report.Check(traced_checks.check_failures.empty(),
                 "traced fleet failed a correctness check");
    report.Check(rep_traced.fingerprint == plain.fingerprint,
                 "tracing changed the fleet's outputs");
    ++traced.windows;
    traced.build_s += fleet.build_s;
    traced.start_s += fleet.start_s;
    traced.run_s += rep_traced.run_s;
    traced.pair_ratio.push_back(rep_traced.run_s / run_s.back());
    traced.provision.calls += provision.calls;
    traced.provision.seconds += provision.seconds;
    traced.provision_run_s += provision.seconds - at_start.seconds;
    traced.last = std::move(rep_traced);
  }
  const std::size_t peak_rss = PeakRssBytes();
  report.fingerprint = plain.fingerprint;
  report.attempted = plain.rounds_attempted;
  report.failed = plain.rounds_attempted - plain.rounds_committed;

  // The SecAgg probe runs at the fleet's group shape; its sum check is part
  // of every fleet_secure run, its timings part of the ledger.
  SecAggProbe probe;
  if (secure) {
    SecAggShape sa;
    sa.group = std::min(shape.per_aggregator, RoundFor(shape).SelectionTarget());
    Rng model_rng(options.seed ^ 0x6d6f64656cull);
    const std::size_t params =
        graph::BuildLogisticRegression(shape.features, shape.classes, model_rng)
            .init_params.TotalParameters();
    sa.vector_length = fedavg::KeepCount(params, shape.ring_keep) + 1;
    sa.ring_bits = RoundFor(shape).secagg.ring_bits;
    sa.threshold_fraction = RoundFor(shape).secagg.threshold_fraction;
    sa.dropout = 0.1;
    probe = RunSecAggProbe(sa, options.seed, 3);
    report.Check(probe.sum_matches,
                 "SecAgg probe: unmasked sum != plain sum of survivors");
    report.fingerprint += ";secagg_crc=" + std::to_string(probe.sum_crc);
  }

  if (!options.trace) {
    const double updates = static_cast<double>(plain.updates_landed);
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("client_updates_per_s",
               static_cast<double>(plain.window_updates) /
                   *std::min_element(run_s.begin(), run_s.end()),
               "1/s");
    report.Add("round_commit_frac",
               static_cast<double>(plain.rounds_committed) /
                   static_cast<double>(std::max<std::uint64_t>(
                       plain.rounds_attempted, 1)),
               "ratio");
    report.Add("upload_bytes_per_update",
               static_cast<double>(plain.upload_bytes) / std::max(updates, 1.0),
               "B");
    report.Add("bytes_per_device",
               static_cast<double>(peak_rss - std::min(peak_rss, rss_before)) /
                   static_cast<double>(shape.devices),
               "B");
    report.Add("peak_rss_mb", static_cast<double>(peak_rss) / (1 << 20), "MB");
    report.Add("train_loss", plain.train_loss, "nats");
    return report;
  }

  report.metrics = Ledger(shape, window, traced).metrics;
  double checkins = 0;
  for (const Metric& m : report.metrics) {
    if (m.name == "server.frontend.checkins") checkins = m.value;
  }
  const double attest_us =
      AttestMicros(options.seed, options.tiny ? 2000 : 20000);
  report.Add("crypto.attest_us", attest_us, "us");
  report.Add("crypto.attest_est_s", checkins * attest_us / 1e6, "s");
  report.Add("secagg.advertise_ms", probe.advertise_ms, "ms");
  report.Add("secagg.share_keys_ms", probe.share_keys_ms, "ms");
  report.Add("secagg.mask_input_ms", probe.mask_input_ms, "ms");
  report.Add("secagg.finalize_ms", probe.finalize_ms, "ms");
  report.Add("trace.overhead_frac", Median(traced.pair_ratio) - 1.0, "ratio");
  return report;
}

}  // namespace fl::perfbench
