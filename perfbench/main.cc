// perfbench: the repository benchmark's measuring program. run.py builds it
// and is the documented entry point; this binary runs one workload and
// prints one JSON line:
//
//   perfbench --workload fleet_checkin|fleet_secure|proxy_train
//             --seed N --seconds S --trace 0|1 [--tiny]
//
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}},
//    "fingerprint":"..","check_failures":[..],"env":{..}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ledger.
// Both tables below are the complete, fixed metric lists: a workload that
// does not exercise a layer reports 0 for it, and a name a workload reports
// outside the table is a program error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>

#include "perfbench/bench.h"
#include "src/common/json_writer.h"
#include "src/profiler/profiler.h"
#include "src/telemetry/telemetry.h"

#ifndef FL_BENCH_BUILD_TYPE
#define FL_BENCH_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace fl::perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"client_updates_per_s", "1/s"},
    {"round_commit_frac", "ratio"},
    {"upload_bytes_per_update", "B"},
    {"bytes_per_device", "B"},
    {"peak_rss_mb", "MB"},
    {"train_loss", "nats"},
};

constexpr MetricSpec kPerLayer[] = {
    {"core.build_s", "s"},
    {"core.start_s", "s"},
    {"core.run_s", "s"},
    {"core.unattributed_s", "s"},
    {"data.provision_calls", "count"},
    {"data.provision_s", "s"},
    {"device.sessions_started", "count"},
    {"device.sessions_completed", "count"},
    {"device.session_complete_frac", "ratio"},
    {"sim.events_fired", "count"},
    {"sim.events_scheduled", "count"},
    {"sim.events_cancelled", "count"},
    {"sim.events_cascaded", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.events_per_update", "count"},
    {"sim.device_hours_per_s", "h/s"},
    {"actor.messages", "count"},
    {"actor.messages_per_update", "count"},
    {"server.selector.busy_s", "s"},
    {"server.selector.messages", "count"},
    {"server.selector.dispatch_us_p50", "us"},
    {"server.selector.dispatch_us_p99", "us"},
    {"server.coordinator.busy_s", "s"},
    {"server.coordinator.messages", "count"},
    {"server.coordinator.dispatch_us_p50", "us"},
    {"server.coordinator.dispatch_us_p99", "us"},
    {"server.master_aggregator.busy_s", "s"},
    {"server.master_aggregator.messages", "count"},
    {"server.master_aggregator.dispatch_us_p50", "us"},
    {"server.master_aggregator.dispatch_us_p99", "us"},
    {"server.aggregator.busy_s", "s"},
    {"server.aggregator.messages", "count"},
    {"server.aggregator.dispatch_us_p50", "us"},
    {"server.aggregator.dispatch_us_p99", "us"},
    {"server.frontend.checkins", "count"},
    {"server.frontend.checkins_per_update", "count"},
    {"server.frontend.attestation_failures", "count"},
    {"server.rounds_committed", "count"},
    {"server.rounds_abandoned", "count"},
    {"crypto.attest_us", "us"},
    {"crypto.attest_est_s", "s"},
    {"secagg.advertise_ms", "ms"},
    {"secagg.share_keys_ms", "ms"},
    {"secagg.mask_input_ms", "ms"},
    {"secagg.finalize_ms", "ms"},
    {"fedavg.client_update_ms_p50", "ms"},
    {"fedavg.client_update_ms_p90", "ms"},
    {"fedavg.client_update_s", "s"},
    {"tools.round_ms_p50", "ms"},
    {"tools.round_overhead_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_checkin|fleet_secure|proxy_train --seed N --seconds S "
               "--trace 0|1 [--tiny]\n",
               why);
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0) ||
          o.seconds > 600) {
        Usage("--seconds needs a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace needs 0 or 1");
      }
      o.trace = value[0] == '1';
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return o;
}

// Pins the measured program: every environment switch that would add a
// plane, a listener or another event-queue engine is cleared, and the
// runtime planes are set explicitly. The always-on flight recorder keeps
// its product default. Returns an error text, or empty when pinned.
std::string PinEnvironment() {
  std::vector<std::string> drop = {"FL_STATUSZ", "FL_BUNDLE_DIR",
                                   "FL_EVENT_QUEUE", "FL_FLIGHT_RECORDER"};
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("FL_PROFILER", 0) == 0) {
      drop.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : drop) unsetenv(name.c_str());
  telemetry::SetEnabled(false);
  // The heap profiler reads FL_PROFILER before main runs, so a profiler
  // armed from the caller's environment cannot be undone here.
  if (profiler::Enabled()) return "FL_PROFILER was set when perfbench started";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "perfbench refuses sanitizer builds";
#endif
#ifndef NDEBUG
  return "perfbench refuses builds without NDEBUG (Debug)";
#endif
  return {};
}

void Complete(Report& report, const MetricSpec* specs, std::size_t n) {
  std::vector<Metric> ordered;
  for (std::size_t i = 0; i < n; ++i) {
    Metric m{specs[i].name, 0, specs[i].unit};
    for (const Metric& got : report.metrics) {
      if (got.name == m.name) {
        report.Check(got.unit == m.unit, "unit mismatch for " + m.name);
        m.value = got.value;
      }
    }
    if (!std::isfinite(m.value)) {
      report.Check(false, "non-finite value for " + m.name);
      m.value = 0;
    }
    ordered.push_back(m);
  }
  for (const Metric& got : report.metrics) {
    bool known = false;
    for (std::size_t i = 0; i < n; ++i) known = known || got.name == specs[i].name;
    report.Check(known, "metric outside the table: " + got.name);
  }
  report.metrics = std::move(ordered);
}

}  // namespace
}  // namespace fl::perfbench

int main(int argc, char** argv) {
  using namespace fl::perfbench;
  const Options options = Parse(argc, argv);
  if (const std::string refusal = PinEnvironment(); !refusal.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", refusal.c_str());
    return 3;
  }

  Report report;
  if (options.workload == "fleet_checkin") {
    report = RunFleet(options, /*secure=*/false);
  } else if (options.workload == "fleet_secure") {
    report = RunFleet(options, /*secure=*/true);
  } else if (options.workload == "proxy_train") {
    report = RunProxy(options);
  } else {
    Usage(("unknown workload " + options.workload).c_str());
  }
  if (options.trace) {
    Complete(report, kPerLayer, std::size(kPerLayer));
  } else {
    Complete(report, kEndToEnd, std::size(kEndToEnd));
  }
  const bool correct = report.check_failures.empty();
  if (!correct) report.failed = report.attempted;

  fl::JsonWriter json;
  json.BeginObject()
      .Field("correct", correct)
      .Field("attempted", static_cast<std::size_t>(report.attempted))
      .Field("failed", static_cast<std::size_t>(report.failed))
      .BeginObject("metrics");
  for (const Metric& m : report.metrics) {
    json.BeginObject(m.name).Field("value", m.value).Field("unit", m.unit)
        .EndObject();
  }
  json.EndObject()
      .Field("fingerprint", report.fingerprint)
      .BeginArray("check_failures");
  for (const std::string& f : report.check_failures) json.Field("", f);
  json.EndArray()
      .BeginObject("env")
      .Field("workload", options.workload)
      .Field("seed", static_cast<std::size_t>(options.seed))
      .Field("seconds", options.seconds)
      .Field("trace", options.trace)
      .Field("tiny", options.tiny)
      .Field("build_type", FL_BENCH_BUILD_TYPE)
      .Field("git_sha", FL_GIT_SHA)
      .Field("hardware_concurrency",
             static_cast<std::size_t>(std::thread::hardware_concurrency()))
      .EndObject()
      .EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
