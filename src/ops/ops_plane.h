// The live ops plane as one object: sliding-window store + sampler +
// health evaluator + status server, pumped from the FLSystem stats tick.
// FLSystem owns one of these when FL_STATUSZ is set (or statusz_port is
// configured explicitly) and calls Tick() with each registry snapshot;
// everything HTTP threads read is either thread-safe by construction or an
// atomic published here.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/analytics/window_store.h"
#include "src/common/sim_time.h"
#include "src/ops/debug_bundle.h"
#include "src/ops/health.h"
#include "src/ops/round_ledger.h"
#include "src/ops/sampler.h"
#include "src/ops/status_server.h"

namespace fl::ops {

// FL_STATUSZ env gate: unset/empty -> nullopt (plane off); "0" -> ephemeral
// port; otherwise the port number. Out-of-range values read as off.
std::optional<int> StatuszPortFromEnv();

class OpsPlane {
 public:
  struct Options {
    int port = 0;  // 0 = ephemeral
    std::string population;
    HealthPolicy health;
    analytics::SlidingWindowStore::Options store;
  };

  // `ledger` is the RoundLedger already folding the FLSystem's events
  // (may be null for hosts without one); the plane enables it on Start().
  // `bundler` is the host's DiagnosticBundler (may be null): the plane
  // serves it on /debugz and captures a bundle when health transitions
  // healthy -> unhealthy.
  explicit OpsPlane(Options opts, RoundLedger* ledger = nullptr,
                    DiagnosticBundler* bundler = nullptr);
  ~OpsPlane();

  OpsPlane(const OpsPlane&) = delete;
  OpsPlane& operator=(const OpsPlane&) = delete;

  Status Start();
  void Stop();
  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }

  // One ops tick (FLSystem calls this from the stats sampler): samples the
  // snapshot into the window store, re-evaluates health, publishes the sim
  // clock for /statusz.
  void Tick(SimTime now, const telemetry::MetricsSnapshot& snapshot);

  analytics::SlidingWindowStore& store() { return store_; }
  const analytics::SlidingWindowStore& store() const { return store_; }
  MetricsSampler& sampler() { return sampler_; }
  HealthEvaluator& health() { return health_; }
  StatusServer& server() { return server_; }

 private:
  RoundLedger* ledger_;
  DiagnosticBundler* bundler_;
  analytics::SlidingWindowStore store_;
  MetricsSampler sampler_;
  HealthEvaluator health_;
  std::atomic<std::int64_t> sim_now_ms_{0};
  // Healthy -> unhealthy edge detection for the bundle trigger (ticks run
  // on the sim thread only).
  bool was_healthy_ = true;
  StatusServer server_;
};

}  // namespace fl::ops
