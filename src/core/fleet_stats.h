// FleetStats: the analytics layer of the deployment (Sec. 5), implemented
// over src/analytics primitives. It folds every emitted Event (FLSystem
// binds it to the deployment's EventBus) and is the recorder device agents
// use for state occupancy and session shapes, and it owns every series the
// Fig. 5-9 / Table 1 benches read.
#pragma once

#include <array>
#include <map>

#include "src/analytics/events.h"
#include "src/analytics/journal.h"
#include "src/analytics/monitor.h"
#include "src/analytics/timeseries.h"

namespace fl::core {

struct RoundParticipantCounts {
  std::size_t completed = 0;
  std::size_t aborted = 0;   // server had enough (late '#' rejections)
  std::size_t dropped = 0;   // device-side failures
};

// One row per finished round, in completion order — the feed for adaptive
// window tuning (Sec. 11) and the Fig. 5/6 outcome series.
struct RoundSummary {
  RoundId round;
  SimTime at;
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kCommitted;
  std::size_t contributors = 0;
  Duration selection_duration;
  Duration round_duration;
  bool has_timing = false;
};

class FleetStats final {
 public:
  FleetStats(SimTime start, Duration bucket);

  // Folds one emitted fact: round outcomes (with timing when committed),
  // participant outcomes (server- and device-observed), master accepts,
  // check-in rejections, traffic and server errors.
  void OnEvent(const analytics::Event& e);

  // --- Device-side recorders ---
  void OnDeviceStateChange(analytics::DeviceState from,
                           analytics::DeviceState to);
  void OnSessionTrace(const analytics::SessionTrace& trace);
  void OnParticipationTime(Duration d);

  // Samples current device-state occupancy into the per-state series.
  void SampleStates(SimTime t);

  // --- Accessors for benches/tests ---
  const analytics::TimeSeries& StateSeries(analytics::DeviceState s) const {
    return state_series_[static_cast<std::size_t>(s)];
  }
  const analytics::TimeSeries& round_completions() const {
    return round_completions_;
  }
  const analytics::TimeSeries& round_failures() const {
    return round_failures_;
  }
  const analytics::TimeSeries& download_series() const { return download_; }
  const analytics::TimeSeries& upload_series() const { return upload_; }
  const analytics::TimeSeries& drop_series() const { return drops_; }
  const analytics::TimeSeries& completion_series() const {
    return completions_;
  }
  const analytics::Histogram& round_duration_hist() const {
    return round_duration_;
  }
  const analytics::Histogram& selection_duration_hist() const {
    return selection_duration_;
  }
  const analytics::Histogram& participation_hist() const {
    return participation_;
  }
  const analytics::SessionShapeTally& shapes() const { return shapes_; }
  const std::map<RoundId, RoundParticipantCounts>& per_round() const {
    return per_round_;
  }
  const std::vector<RoundSummary>& round_log() const { return round_log_; }
  std::uint64_t total_download_bytes() const { return total_download_; }
  std::uint64_t total_upload_bytes() const { return total_upload_; }
  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }
  std::uint64_t errors() const { return errors_; }
  std::size_t rounds_committed() const { return rounds_committed_; }
  std::size_t rounds_abandoned() const { return rounds_abandoned_; }

  analytics::DeviationMonitor& drop_rate_monitor() {
    return drop_rate_monitor_;
  }

 private:
  std::array<std::size_t, 5> live_counts_{};
  std::array<analytics::TimeSeries, 5> state_series_;
  analytics::TimeSeries round_completions_;
  analytics::TimeSeries round_failures_;
  analytics::TimeSeries download_;
  analytics::TimeSeries upload_;
  analytics::TimeSeries drops_;
  analytics::TimeSeries completions_;
  analytics::Histogram round_duration_;
  analytics::Histogram selection_duration_;
  analytics::Histogram participation_;
  analytics::SessionShapeTally shapes_;
  std::map<RoundId, RoundParticipantCounts> per_round_;
  std::vector<RoundSummary> round_log_;
  std::uint64_t total_download_ = 0;
  std::uint64_t total_upload_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t errors_ = 0;
  std::size_t rounds_committed_ = 0;
  std::size_t rounds_abandoned_ = 0;
  analytics::DeviationMonitor drop_rate_monitor_;
};

}  // namespace fl::core
