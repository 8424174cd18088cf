// proxy_train: the Sec. 7.1 modeling tool, tools::RunFedAvgSimulation, on
// the next-word LM of bench_parallel_rounds — no simulator, actors or
// crypto, only the graph executor, tensor kernels and the FedAvg round
// engine, on one thread.
//
// One untimed warm-up round, then several timed calls of R rounds each from
// the same initial model and seed, whose outputs must agree; throughput comes
// from the fastest call, since they do identical work and differ only by
// interference. Set-up (corpus, per-client data, model, plan) takes a few
// milliseconds, so it is repeated in batches before the warm-up and after
// every timed call, spreading its samples over the whole run, and its median
// is reported. The traced run follows every untraced call with the same call
// under runtime telemetry, and reads the existing sim_round / client_update
// spans, giving means per traced call; trace.overhead_frac is the median
// over these pairs of traced ÷ untraced call time.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "perfbench/bench.h"
#include "src/common/json_writer.h"
#include "src/data/text.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/telemetry/trace.h"
#include "src/tools/simulation_runner.h"

namespace fl::perfbench {
namespace {

struct ProxyShape {
  std::size_t users = 200;
  std::size_t sentences = 25;  // per user
  std::size_t clients_per_round = 100;
  // Timed rounds per requested second, calibrated so one requested second
  // is about one wall second on the reference machine (README.md).
  double rounds_per_second = 0.9;
  std::size_t setups_per_batch = 24;  // set-ups between timed calls
  // The timed rounds are split into repeated calls on identical inputs, at
  // least three, of about this many rounds each.
  std::size_t rounds_per_call = 2;
};

ProxyShape ShapeFor(bool tiny) {
  ProxyShape s;
  if (tiny) {
    s.users = 40;
    s.clients_per_round = 20;
    s.setups_per_batch = 2;
  }
  return s;
}

struct Setup {
  std::vector<std::vector<data::Example>> per_user;
  graph::Model model;
  plan::FLPlan plan;
  double data_s = 0;  // per-client example generation alone
};

Setup BuildSetup(const ProxyShape& shape, std::uint64_t seed) {
  data::TextWorkloadParams text;
  text.vocab_size = 64;
  text.context = 3;
  const data::TextWorkload corpus(text, seed ^ 0x636f72707573ull);
  Setup s;
  const auto t0 = Clock::now();
  s.per_user.reserve(shape.users);
  for (std::uint64_t u = 0; u < shape.users; ++u) {
    s.per_user.push_back(corpus.UserExamples(u, shape.sentences, SimTime{0}));
  }
  s.data_s = SecondsSince(t0);
  Rng model_rng(seed ^ 0x6d6f64656cull);
  s.model = graph::BuildNextWordModel(text.vocab_size, text.context, 16, 64,
                                      model_rng);
  plan::TrainingHyperparams hyper;
  hyper.batch_size = 32;
  hyper.epochs = 2;
  hyper.learning_rate = 0.4f;
  s.plan = plan::MakeTrainingPlan(s.model, "lm", hyper, {});
  return s;
}

tools::SimulationConfig RoundsConfig(const ProxyShape& shape,
                                     std::uint64_t seed, std::size_t rounds) {
  tools::SimulationConfig config;
  config.clients_per_round = shape.clients_per_round;
  config.rounds = rounds;
  config.eval_every = 0;
  config.threads = 1;
  config.seed = seed ^ 0x726f756e6473ull;
  return config;
}

struct Timed {
  double run_s = 0;
  bool ok = false;
  tools::SimulationResult result;
};

Timed RunRounds(const Setup& setup, const tools::SimulationConfig& config) {
  Timed t;
  const auto t0 = Clock::now();
  auto result = tools::RunFedAvgSimulation(setup.plan,
                                           setup.model.init_params,
                                           setup.per_user, {}, config);
  t.run_s = SecondsSince(t0);
  t.ok = result.ok();
  if (t.ok) t.result = std::move(*result);
  return t;
}

std::uint64_t CounterValue(const char* name) {
  const auto snapshot = telemetry::MetricsRegistry::Global().Snapshot();
  const auto* counter = snapshot.FindCounter(name);
  return counter != nullptr ? counter->value : 0;
}

// The calls made with runtime telemetry on, and what their spans and
// counters say, summed over the calls.
struct Traced {
  std::size_t calls = 0;
  double run_s = 0;
  std::uint64_t updates = 0;  // fl_sim_client_updates_total gained
  std::uint64_t update_failures = 0;
  std::vector<double> update_ms, round_ms;
  double update_s = 0, round_s = 0;
};

Timed RunTraced(const Setup& setup, const tools::SimulationConfig& config,
                Traced& traced) {
  const std::uint64_t updates = CounterValue("fl_sim_client_updates_total");
  const std::uint64_t failures =
      CounterValue("fl_sim_client_update_failures_total");
  telemetry::Tracer::Global().Clear();
  telemetry::SetEnabled(true);
  Timed run = RunRounds(setup, config);
  telemetry::SetEnabled(false);
  ++traced.calls;
  traced.run_s += run.run_s;
  traced.updates += CounterValue("fl_sim_client_updates_total") - updates;
  traced.update_failures +=
      CounterValue("fl_sim_client_update_failures_total") - failures;
  for (const telemetry::SpanRecord& span :
       telemetry::Tracer::Global().Completed()) {
    const double s =
        static_cast<double>(span.wall_end_us - span.wall_start_us) / 1e6;
    if (span.name == "client_update") {
      traced.update_ms.push_back(s * 1e3);
      traced.update_s += s;
    } else if (span.name == "sim_round") {
      traced.round_ms.push_back(s * 1e3);
      traced.round_s += s;
    }
  }
  telemetry::Tracer::Global().Clear();
  return run;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::string ProxyFingerprint(const Timed& t) {
  if (!t.ok) return "failed";
  std::uint64_t loss_bits = 0;
  const double last = t.result.trajectory.back().train_loss;
  std::memcpy(&loss_bits, &last, sizeof(last));
  return Fingerprint(
      ModelCrc(t.result.final_model),
      {{"rounds", t.result.rounds_run}, {"loss_bits", loss_bits}});
}

}  // namespace

Report RunProxy(const Options& options) {
  const ProxyShape shape = ShapeFor(options.tiny);
  const double total_rounds = options.seconds * shape.rounds_per_second;
  const std::size_t planned = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(
             total_rounds / static_cast<double>(shape.rounds_per_call))));
  const std::size_t rounds = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::llround(total_rounds / static_cast<double>(planned))));
  Report report;

  const std::size_t rss_before = CurrentRssBytes();
  std::vector<double> setup_s;
  Setup setup;
  const auto set_up = [&] {
    for (std::size_t i = 0; i < shape.setups_per_batch; ++i) {
      setup = Setup{};
      const auto t0 = Clock::now();
      setup = BuildSetup(shape, options.seed);
      setup_s.push_back(SecondsSince(t0));
    }
  };
  set_up();

  const tools::SimulationConfig config =
      RoundsConfig(shape, options.seed, rounds);
  tools::SimulationConfig warm = config;
  warm.rounds = 1;
  report.Check(RunRounds(setup, warm).ok, "warm-up round failed");
  const std::size_t reps =
      options.trace ? std::max<std::size_t>(2, (planned + 1) / 2) : planned;
  std::vector<double> run_s;
  Timed plain;
  Traced traced;
  // Each traced call's time over the untraced call made just before it.
  std::vector<double> pair_ratio;
  for (std::size_t i = 0; i < reps; ++i) {
    Timed rep = RunRounds(setup, config);
    run_s.push_back(rep.run_s);
    std::fprintf(stderr, "repetition %zu: %.3f s\n", i + 1, rep.run_s);
    if (i == 0) {
      plain = std::move(rep);
    } else {
      report.Check(ProxyFingerprint(rep) == ProxyFingerprint(plain),
                   "repetition " + std::to_string(i + 1) +
                       " changed the proxy's outputs");
    }
    if (options.trace) {
      const Timed call = RunTraced(setup, config, traced);
      std::fprintf(stderr, "traced repetition %zu: %.3f s\n", i + 1,
                   call.run_s);
      report.Check(ProxyFingerprint(call) == ProxyFingerprint(plain),
                   "tracing changed the proxy's outputs");
      pair_ratio.push_back(call.run_s / run_s.back());
    }
    set_up();
  }
  const std::size_t peak_rss = PeakRssBytes();

  report.attempted = rounds * shape.clients_per_round;
  report.failed = plain.ok ? 0 : report.attempted;
  report.fingerprint = ProxyFingerprint(plain);
  report.Check(plain.ok, "RunFedAvgSimulation failed");
  double first_loss = 0, last_loss = 0;
  if (plain.ok) {
    first_loss = plain.result.trajectory.front().train_loss;
    last_loss = plain.result.trajectory.back().train_loss;
    report.Check(plain.result.rounds_run == rounds, "not every round ran");
  }
  report.Check(std::isfinite(last_loss) && last_loss < first_loss,
               "train_loss is not finite or not below the first round's");

  if (!options.trace) {
    report.Add("setup_s", Median(setup_s), "s");
    report.Add("client_updates_per_s",
               static_cast<double>(report.attempted - report.failed) /
                   *std::min_element(run_s.begin(), run_s.end()),
               "1/s");
    report.Add("round_commit_frac", plain.ok ? 1.0 : 0.0, "ratio");
    report.Add("upload_bytes_per_update",
               static_cast<double>(setup.model.init_params.TotalParameters() *
                                   sizeof(float)),
               "B");
    report.Add("bytes_per_device",
               static_cast<double>(peak_rss - std::min(peak_rss, rss_before)) /
                   static_cast<double>(shape.users),
               "B");
    report.Add("peak_rss_mb", static_cast<double>(peak_rss) / (1 << 20), "MB");
    report.Add("train_loss", last_loss, "nats");
    return report;
  }

  report.Check(traced.updates == traced.calls * report.attempted &&
                   traced.update_failures == 0,
               "client update counters disagree with the attempted count");
  const double calls = static_cast<double>(traced.calls);
  report.Add("core.build_s", Median(setup_s), "s");
  report.Add("core.run_s", traced.run_s / calls, "s");
  report.Add("core.unattributed_s", (traced.run_s - traced.round_s) / calls,
             "s");
  report.Add("data.provision_calls", static_cast<double>(shape.users),
             "count");
  report.Add("data.provision_s", setup.data_s, "s");
  report.Add("fedavg.client_update_ms_p50",
             Percentile(traced.update_ms, 50), "ms");
  report.Add("fedavg.client_update_ms_p90",
             Percentile(traced.update_ms, 90), "ms");
  report.Add("fedavg.client_update_s", traced.update_s / calls, "s");
  report.Add("tools.round_ms_p50", Percentile(traced.round_ms, 50), "ms");
  report.Add("tools.round_overhead_s",
             (traced.round_s - traced.update_s) / calls, "s");
  report.Add("trace.overhead_frac", Median(pair_ratio) - 1.0, "ratio");
  return report;
}

}  // namespace fl::perfbench
