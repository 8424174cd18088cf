// Flight-recorder overhead: proves "always-on" is affordable. Two
// measurements:
//
//  1. Micro: analytics::Emit() of a device event in a tight loop — the
//     enabled cost per record (seven relaxed stores + one release store +
//     one relaxed fetch_add, plus the journal and telemetry gates) and the
//     disabled cost (the same call with every gate off).
//  2. Macro: the fleet simulator (FLSystem, the protocol hot path every
//     record site lives on) run with the recorder OFF vs ON, telemetry and
//     journal OFF both ways, in interleaved pairs. Gate: the median of the
//     per-pair process-CPU overheads is <= 2%.
//
// Results go to stdout and BENCH_flight_recorder.json.
//
// Usage: bench_flight_recorder [devices] [sim_hours] [pairs]
//        (defaults: 20000 16 15)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/bench_common.h"
#include "src/analytics/emit.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

using namespace fl;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// One protocol-shaped record per iteration; the varying ids keep the loop
// honest without adding work the real sites don't do.
double RecordLoop(std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    analytics::Emit({.at = SimTime{static_cast<std::int64_t>(i)},
                     .kind = analytics::JournalEventKind::kTrainStart,
                     .device = DeviceId{i & 0xffff},
                     .session = SessionId{i},
                     .round = RoundId{i >> 10}});
  }
  return SecondsSince(t0);
}

double CpuSecondsNow() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct MacroRun {
  double cpu_s = 0;
  double wall_s = 0;
};

MacroRun MacroFleet(std::size_t devices, std::int64_t sim_hours) {
  auto config = bench::FleetConfig(devices, /*seed=*/42);
  config.data_refresh_period = Millis(0);
  core::FLSystem system(std::move(config));
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.2f;
  hyper.epochs = 1;
  system.AddTrainingTask("train", bench::BenchModel(), hyper, {},
                         bench::StandardRound(25), Seconds(30));
  system.ProvisionData(bench::BlobsProvisioner(/*seed=*/5, /*per_device=*/30));
  system.Start();
  const auto t0 = std::chrono::steady_clock::now();
  const double c0 = CpuSecondsNow();
  system.RunFor(Hours(sim_hours));
  return {.cpu_s = CpuSecondsNow() - c0, .wall_s = SecondsSince(t0)};
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t devices =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 20'000;
  const std::int64_t sim_hours = argc > 2 ? std::atoll(argv[2]) : 16;
  const int pairs = argc > 3 ? std::max(1, std::atoi(argv[3])) : 15;

  bench::PrintHeader(
      "Flight-recorder overhead — always-on must stay under 2%",
      "Sec. 8: postmortem evidence must exist before anyone asks for it; "
      "the per-thread rings record every protocol edge even with telemetry "
      "and the journal off, for <= 2% of fleet-simulator throughput.");

  telemetry::SetEnabled(false);  // isolate the recorder's own cost

  // --- 1. micro: ns per record, enabled vs disabled gate ---
  const std::size_t iters = 20'000'000;
  telemetry::SetFlightRecorderEnabled(true);
  RecordLoop(iters / 10);  // warm-up: registers this thread's ring
  const double on_s = RecordLoop(iters);
  telemetry::SetFlightRecorderEnabled(false);
  const double gate_s = RecordLoop(iters);
  const double on_ns = on_s / static_cast<double>(iters) * 1e9;
  const double gate_ns = gate_s / static_cast<double>(iters) * 1e9;
  std::printf("\nmicro loop (%zu records):\n", iters);
  std::printf("  %-28s %8.2f ns/record\n", "recorder enabled", on_ns);
  std::printf("  %-28s %8.2f ns/call (gate only)\n", "recorder disabled",
              gate_ns);

  // --- 2. macro: the fleet simulator with the recorder off vs on ---
  // Per-pair ratios, then the median across pairs (as bench_profiler):
  // machine speed on a shared host drifts by more than the 2% effect, but
  // the two runs of a pair are adjacent in time and share it, so the ratio
  // cancels the drift and the median discards outlier pairs. A best-of-N
  // per arm would instead crown whichever arm caught the single fastest
  // machine state. Process CPU time, not wall time, so that time the host
  // gives other tenants does not count against either arm; wall ratios are
  // reported alongside. The order within a pair alternates, so neither arm
  // always runs on the state the other one warmed.
  telemetry::SetFlightRecorderEnabled(false);
  MacroFleet(devices, sim_hours);  // warm-up
  const std::uint64_t records_before =
      telemetry::FlightRecorder::Global().total_records();
  std::vector<double> off_cpu, cpu_ratios, wall_ratios;
  for (int p = 0; p < pairs; ++p) {
    MacroRun off, on;
    for (int slot = 0; slot < 2; ++slot) {
      const bool recorder_on = (slot + p) % 2 == 1;
      telemetry::SetFlightRecorderEnabled(recorder_on);
      (recorder_on ? on : off) = MacroFleet(devices, sim_hours);
    }
    off_cpu.push_back(off.cpu_s);
    cpu_ratios.push_back(on.cpu_s / off.cpu_s);
    wall_ratios.push_back(on.wall_s / off.wall_s);
  }
  telemetry::SetFlightRecorderEnabled(false);
  const double off_s = Median(off_cpu);
  const double macro_on_s = off_s * Median(cpu_ratios);
  const double overhead_pct = (Median(cpu_ratios) - 1.0) * 100.0;
  const double wall_overhead_pct = (Median(wall_ratios) - 1.0) * 100.0;
  const bool within_gate = overhead_pct <= 2.0;
  const std::uint64_t recorded =
      telemetry::FlightRecorder::Global().total_records();
  const std::uint64_t records_per_run =
      (recorded - records_before) / static_cast<std::uint64_t>(pairs);

  std::printf("\nper-pair overhead (recorder on vs same-pair off):\n");
  for (int p = 0; p < pairs; ++p) {
    std::printf("  pair %2d: off %.3f cpu-s, on %+6.2f%% cpu, %+6.2f%% wall\n",
                p, off_cpu[p], (cpu_ratios[p] - 1.0) * 100.0,
                (wall_ratios[p] - 1.0) * 100.0);
  }
  std::printf("\nmacro fleet simulator (%zu devices, %lld sim-hours, "
              "median of %d interleaved pairs, process CPU seconds):\n",
              devices, static_cast<long long>(sim_hours), pairs);
  std::printf("  %-28s %8.3f cpu-s\n", "recorder disabled", off_s);
  std::printf("  %-28s %8.3f cpu-s  (%+.2f%% vs disabled; wall %+.2f%%)\n",
              "recorder enabled", macro_on_s, overhead_pct, wall_overhead_pct);
  std::printf("  %-28s %llu records per run across %zu ring(s)\n", "recorded",
              static_cast<unsigned long long>(records_per_run),
              telemetry::FlightRecorder::Global().rings_registered());
  std::printf("\nalways-on overhead %.2f%% — target <= 2%%: %s\n",
              overhead_pct, within_gate ? "PASS" : "FAIL");

  bench::JsonWriter json;
  json.BeginObject()
      .Field("bench", "flight_recorder")
      .EnvironmentFields()
      .BeginObject("micro")
      .Field("iters", iters)
      .Field("enabled_ns_per_record", on_ns)
      .Field("disabled_gate_ns", gate_ns)
      .EndObject()
      .BeginObject("macro")
      .Field("devices", devices)
      .Field("sim_hours", static_cast<std::size_t>(sim_hours))
      .Field("pairs", static_cast<std::size_t>(pairs))
      .Field("clock", "process_cpu")
      .Field("disabled_seconds", off_s)
      .Field("enabled_seconds", macro_on_s)
      .Field("overhead_pct", overhead_pct)
      .Field("wall_overhead_pct", wall_overhead_pct)
      .Field("records", static_cast<std::size_t>(records_per_run));
  json.BeginArray("pair_overhead_pct");
  for (double r : cpu_ratios) json.Field("", (r - 1.0) * 100.0);
  json.EndArray()
      .EndObject()
      .Field("within_2pct", within_gate)
      .EndObject();

  const char* out = "BENCH_flight_recorder.json";
  if (json.WriteFile(out)) {
    std::printf("wrote %s\n", out);
  } else {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  // Timing noise on loaded CI machines can breach the gate spuriously; the
  // JSON records the verdict, the bench itself always exits 0.
  return 0;
}
