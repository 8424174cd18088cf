#include "src/core/fleet_stats.h"

#include "src/analytics/emit.h"
#include "src/common/logging.h"
namespace fl::core {
namespace {

analytics::TimeSeries MakeSeries(SimTime start, Duration bucket) {
  return analytics::TimeSeries(start, bucket);
}

}  // namespace

FleetStats::FleetStats(SimTime start, Duration bucket)
    : state_series_{MakeSeries(start, bucket), MakeSeries(start, bucket),
                    MakeSeries(start, bucket), MakeSeries(start, bucket),
                    MakeSeries(start, bucket)},
      round_completions_(start, bucket),
      round_failures_(start, bucket),
      download_(start, bucket),
      upload_(start, bucket),
      drops_(start, bucket),
      completions_(start, bucket),
      round_duration_(0.0, 30.0, 120),      // minutes
      selection_duration_(0.0, 30.0, 120),  // minutes
      participation_(0.0, 30.0, 120),       // minutes
      drop_rate_monitor_("participant_drop_rate", {}) {}

void FleetStats::OnEvent(const analytics::Event& e) {
  using analytics::JournalEventKind;
  if (analytics::IsServerError(e)) {
    ++errors_;
    // Expected operational noise (drop-outs, aborted secagg groups) stays
    // at INFO; the error *counter* is what monitors consume (Sec. 5).
    FL_LOG(Info) << "[" << FormatSimTime(e.at) << "] server error at "
                 << analytics::JournalSourceName(e.source) << " round "
                 << e.round.value;
  }
  protocol::ParticipantOutcome participant;
  if (analytics::ParticipantOutcomeOf(e, &participant)) {
    RoundParticipantCounts& c = per_round_[e.round];
    switch (participant) {
      case protocol::ParticipantOutcome::kCompleted:
        ++c.completed;
        completions_.Add(e.at);
        break;
      case protocol::ParticipantOutcome::kAborted:
      case protocol::ParticipantOutcome::kRejectedLate:
        // Fig. 7's "aborted": work discarded because the server already had
        // enough reports.
        ++c.aborted;
        break;
      case protocol::ParticipantOutcome::kDropped:
        ++c.dropped;
        drops_.Add(e.at);
        break;
    }
    return;
  }
  switch (e.kind) {
    case JournalEventKind::kRoundOutcome: {
      RoundSummary summary;
      summary.round = e.round;
      summary.at = e.at;
      summary.outcome = e.outcome;
      if (e.outcome == protocol::RoundOutcome::kCommitted) {
        // A lost round's count is its loss reason's, not contributors.
        summary.contributors = e.count;
        ++rounds_committed_;
        round_completions_.Add(e.at);
        selection_duration_.Add(e.selection_duration.Minutes());
        round_duration_.Add(e.round_duration.Minutes());
        summary.selection_duration = e.selection_duration;
        summary.round_duration = e.round_duration;
        summary.has_timing = true;
      } else {
        ++rounds_abandoned_;
        round_failures_.Add(e.at);
      }
      round_log_.push_back(summary);
      break;
    }
    case JournalEventKind::kMasterAccepted:
      ++accepted_;
      break;
    case JournalEventKind::kCheckinRejected:
      ++rejected_;
      break;
    case JournalEventKind::kDownload:
    case JournalEventKind::kUpload: {
      if (e.bytes == 0) break;
      const bool down = e.kind == JournalEventKind::kDownload;
      (down ? download_ : upload_).Add(e.at, static_cast<double>(e.bytes));
      (down ? total_download_ : total_upload_) += e.bytes;
      break;
    }
    default:
      break;
  }
}

void FleetStats::OnDeviceStateChange(analytics::DeviceState from,
                                     analytics::DeviceState to) {
  auto& from_count = live_counts_[static_cast<std::size_t>(from)];
  if (from_count > 0) --from_count;
  ++live_counts_[static_cast<std::size_t>(to)];
}

void FleetStats::OnSessionTrace(const analytics::SessionTrace& trace) {
  // Only sessions that progressed past check-in form "training round
  // sessions" in the Table 1 sense.
  if (trace.events.size() >= 2) shapes_.Record(trace);
}

void FleetStats::OnParticipationTime(Duration d) {
  participation_.Add(d.Minutes());
}

void FleetStats::SampleStates(SimTime t) {
  for (std::size_t s = 0; s < live_counts_.size(); ++s) {
    state_series_[s].Add(t, static_cast<double>(live_counts_[s]));
  }
  // Feed the deviation monitor with the instantaneous drop share.
  const double participating =
      static_cast<double>(live_counts_[static_cast<std::size_t>(
          analytics::DeviceState::kParticipating)]);
  if (participating > 0) {
    // Relative drop pressure; the monitor learns the diurnal baseline.
    drop_rate_monitor_.Observe(t, participating);
  }
}

}  // namespace fl::core
