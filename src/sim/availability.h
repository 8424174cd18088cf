// Device availability model.
//
// The paper reports (Sec. 9, Appendix A) that device participation follows a
// strong diurnal pattern — devices are "more likely idle and charging at
// night", with a ~4x swing between daily low and high for a US-centric
// population — and that 6–10% of participants drop out mid-round, more by
// day than by night.
//
// We model each device as a two-state (eligible / ineligible) continuous-time
// Markov process whose ON-rate is modulated by a diurnal occupancy curve in
// the device's local time zone. The eligibility criteria being modelled are
// the paper's: idle + charging + connected to an unmetered network (Sec. 3).
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/id.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"

namespace fl::sim {

// Target probability that a device is eligible as a function of local
// hour-of-day. Smooth day/night curve: a raised cosine peaking at
// `peak_hour` (default 2am) scaled so that peak/trough occupancy ratio is
// approximately `swing`.
class DiurnalCurve {
 public:
  struct Params {
    double peak_hour = 2.0;       // local time of maximum availability
    double peak_occupancy = 0.6;  // P(eligible) at the peak
    double swing = 4.0;           // peak / trough occupancy ratio (paper: ~4x)
  };

  DiurnalCurve() : p_() {}
  explicit DiurnalCurve(Params p) : p_(p) {}

  // P(eligible) at local hour h in [0, 24).
  double Occupancy(double local_hour) const;

  // Occupancy at an absolute sim time for a device with `tz_offset`.
  double OccupancyAt(SimTime t, Duration tz_offset) const {
    return Occupancy(t.HourOfDay(tz_offset));
  }

  const Params& params() const { return p_; }

 private:
  Params p_;
};

// Static per-device characteristics, drawn once per device at fleet
// construction. These substitute for the paper's heterogeneous phone fleet:
// differing network speeds, compute speeds, and flakiness (Sec. 9 notes
// performance "depends on device and network speed ... which can vary by
// region").
struct DeviceProfile {
  DeviceId id;
  Duration tz_offset;          // local-time shift for the diurnal curve
  double download_bps = 0;     // sustained download bandwidth (bits/sec)
  double upload_bps = 0;       // sustained upload bandwidth (bits/sec)
  double examples_per_sec = 0; // on-device training throughput
  double interrupt_rate_day = 0;   // eligibility-loss hazard (1/ms), daytime
  double interrupt_rate_night = 0; // same, night
  std::uint64_t seed = 0;      // per-device RNG stream
  std::uint32_t os_version = 0;     // FL runtime version on this device
  bool genuine = true;         // attestation outcome (Sec. 3, Attestation)
};

// Parameters for sampling a fleet of DeviceProfiles.
struct PopulationParams {
  std::size_t device_count = 1000;
  // Fraction of devices in each timezone bucket; default US-centric
  // (a single dominant zone, as in Appendix A).
  std::vector<double> tz_weights = {0.6, 0.2, 0.15, 0.05};
  std::vector<Duration> tz_offsets = {Hours(0), Hours(-1), Hours(-2),
                                      Hours(-3)};
  double mean_download_mbps = 20.0;
  double mean_upload_mbps = 5.0;
  double bandwidth_sigma = 0.5;      // log-normal spread
  double mean_examples_per_sec = 50.0;
  double compute_sigma = 0.4;
  // Mean eligible-interval length while training could be interrupted.
  Duration mean_eligible_day = Minutes(20);
  Duration mean_eligible_night = Hours(3);
  double non_genuine_fraction = 0.0;  // devices that fail attestation
  std::uint32_t min_os_version = 1;
  std::uint32_t max_os_version = 3;
};

// Samples a reproducible fleet.
std::vector<DeviceProfile> GeneratePopulation(const PopulationParams& params,
                                              Rng& rng);

// Generates the eligible/ineligible timeline for one device by simulating
// the two-state Markov process. Used by the device runtime to decide when to
// check in and when to interrupt running work.
class AvailabilityProcess {
 public:
  AvailabilityProcess(const DiurnalCurve& curve, const DeviceProfile& profile);

  // True if the device currently meets eligibility criteria.
  bool eligible() const { return eligible_; }
  const DeviceProfile& profile() const { return profile_; }

  // Advances the process and returns the time of the next state toggle
  // strictly after `t`. Call repeatedly to walk the timeline.
  SimTime NextToggleAfter(SimTime t);

  // Hazard rate (per ms) of losing eligibility at time t: drives mid-round
  // drop-outs, higher by day (Fig. 7 discussion).
  double InterruptRateAt(SimTime t) const;

 private:
  double OnRateAt(SimTime t) const;   // ineligible -> eligible (per ms)
  double OffRateAt(SimTime t) const;  // eligible -> ineligible (per ms)

  const DiurnalCurve& curve_;
  DeviceProfile profile_;
  Rng rng_;
  bool eligible_ = false;
};

}  // namespace fl::sim
