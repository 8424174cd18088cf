// Shared types of the repository benchmark (perfbench). Each workload drives
// the library only through its public API, from one process and one timed
// thread, and returns a Report: the metrics it measured, how many
// operations it attempted and how many failed, the correctness checks that
// failed, and a fingerprint of its deterministic outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/tensor/checkpoint.h"

namespace fl::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // Size of the timed phase, in nominal seconds on the reference machine
  // (see README.md): the phase is a fixed amount of work derived from this,
  // so its outputs depend only on (workload, seed, seconds, tiny).
  double seconds = 10;
  bool trace = false;
  // Shrinks every workload to a few percent of its size (self-test only).
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::string fingerprint;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(bool ok, std::string what) {
    if (!ok) check_failures.push_back(std::move(what));
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> values);
// Current resident set (VmRSS) in bytes; 0 where procfs is unavailable.
std::size_t CurrentRssBytes();
// CRC32 over every parameter of `model`, in tensor-name order. (The
// serialized form ends in its own CRC, so hashing it would give a constant.)
std::uint32_t ModelCrc(const Checkpoint& model);
// "crc=<hex>;key=value;..." — the fingerprint format every workload uses.
std::string Fingerprint(std::uint32_t crc,
                        const std::vector<std::pair<std::string,
                                                    std::uint64_t>>& counters);

Report RunFleet(const Options& options, bool secure);
Report RunProxy(const Options& options);

// --- Standalone probes of single layers, timed outside any fleet. ---

// Mean wall microseconds of one AttestationAuthority Issue + Verify pair.
double AttestMicros(std::uint64_t seed, std::size_t pairs);

struct SecAggShape {
  std::size_t group = 0;          // participants in one Aggregator group
  std::size_t vector_length = 0;  // masked words, trailing weight included
  std::uint8_t ring_bits = 32;
  double threshold_fraction = 0.66;
  double dropout = 0;  // share that vanishes between ShareKeys and MaskInput
};

struct SecAggProbe {
  double advertise_ms = 0;    // per client: key generation + advertise + collect
  double share_keys_ms = 0;   // per client: ShareKeys + server collect
  double mask_input_ms = 0;   // per client: MaskInput + server collect
  double finalize_ms = 0;     // per group: server Finalize
  bool sum_matches = false;   // unmasked sum == plain sum of survivors
  std::uint32_t sum_crc = 0;
};

// One SecAgg round with no thread pool; `repeats` rounds, median timings.
SecAggProbe RunSecAggProbe(const SecAggShape& shape, std::uint64_t seed,
                           std::size_t repeats);

}  // namespace fl::perfbench
