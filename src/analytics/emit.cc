#include "src/analytics/emit.h"

#include "src/telemetry/metrics.h"

namespace fl::analytics {
namespace {

using protocol::ParticipantOutcome;

// Registry instruments are never deallocated, so the pointers resolved once
// stay valid for the process.
struct ServerCounters {
  telemetry::Counter* rounds_committed;
  telemetry::Counter* rounds_abandoned;
  telemetry::Counter* participants[4];  // by ParticipantOutcome
  telemetry::Counter* devices_accepted;
  telemetry::Counter* devices_rejected;
  telemetry::Counter* download_bytes;
  telemetry::Counter* upload_bytes;
  telemetry::Counter* errors;
  telemetry::Histogram* round_contributors;
  telemetry::Histogram* selection_seconds;
  telemetry::Histogram* round_seconds;
};

const ServerCounters& Counters() {
  static const ServerCounters counters = [] {
    auto& r = telemetry::MetricsRegistry::Global();
    ServerCounters c;
    c.rounds_committed = r.GetCounter("fl_server_rounds_committed_total");
    c.rounds_abandoned = r.GetCounter("fl_server_rounds_abandoned_total");
    for (int o = 0; o < 4; ++o) {  // fl_server_participants_<outcome>_total
      c.participants[o] = r.GetCounter(
          std::string("fl_server_participants_") +
          protocol::ParticipantOutcomeName(static_cast<ParticipantOutcome>(o)) +
          "_total");
    }
    c.devices_accepted = r.GetCounter("fl_server_devices_accepted_total");
    c.devices_rejected = r.GetCounter("fl_server_devices_rejected_total");
    c.download_bytes = r.GetCounter("fl_server_download_bytes_total");
    c.upload_bytes = r.GetCounter("fl_server_upload_bytes_total");
    c.errors = r.GetCounter("fl_server_errors_total");
    // Contributors per round: rounds commit with tens-to-hundreds of reports.
    c.round_contributors = r.GetHistogram(
        "fl_server_round_contributors", telemetry::HistogramOptions{1, 2, 12});
    // Phase durations in seconds; rounds run minutes (Sec. 8: 2–3 min).
    c.selection_seconds = r.GetHistogram(
        "fl_server_selection_seconds", telemetry::HistogramOptions{1, 2, 16});
    c.round_seconds = r.GetHistogram("fl_server_round_seconds",
                                     telemetry::HistogramOptions{1, 2, 16});
    return c;
  }();
  return counters;
}

}  // namespace

void CountServerFact(const Event& e) {
  const ServerCounters& c = Counters();
  ParticipantOutcome participant;
  if (ParticipantOutcomeOf(e, &participant)) {
    c.participants[static_cast<int>(participant)]->Add();
  }
  if (IsServerError(e)) c.errors->Add();
  switch (e.kind) {
    case JournalEventKind::kRoundOutcome:
      if (e.outcome == protocol::RoundOutcome::kCommitted) {
        c.rounds_committed->Add();
        c.round_contributors->Observe(static_cast<double>(e.count));
        c.selection_seconds->Observe(e.selection_duration.Seconds());
        c.round_seconds->Observe(e.round_duration.Seconds());
      } else {
        c.rounds_abandoned->Add();
      }
      break;
    case JournalEventKind::kMasterAccepted: c.devices_accepted->Add(); break;
    case JournalEventKind::kCheckinRejected: c.devices_rejected->Add(); break;
    case JournalEventKind::kDownload: c.download_bytes->Add(e.bytes); break;
    case JournalEventKind::kUpload: c.upload_bytes->Add(e.bytes); break;
    default: break;
  }
}

EventBus::EventBus(Fold fold) : fold_(std::move(fold)) { (void)Counters(); }

bool IsServerError(const Event& e) {
  switch (e.kind) {
    case JournalEventKind::kServerError:
      return true;
    case JournalEventKind::kReportRejected:
      return e.reason == FlightReason::kCorrupt ||
             e.reason == FlightReason::kAccumulate;
    case JournalEventKind::kRoundOutcome:
      return e.outcome == protocol::RoundOutcome::kFailed;
    default:
      return false;
  }
}

bool ParticipantOutcomeOf(const Event& e, ParticipantOutcome* out) {
  switch (e.kind) {
    case JournalEventKind::kReportAccepted:
      *out = ParticipantOutcome::kCompleted;
      return true;
    case JournalEventKind::kReportRejected:
      *out = e.reason == FlightReason::kLate ? ParticipantOutcome::kRejectedLate
                                             : ParticipantOutcome::kDropped;
      return true;
    case JournalEventKind::kParticipantAborted:
      *out = ParticipantOutcome::kAborted;
      return true;
    case JournalEventKind::kParticipantDropped:
      *out = ParticipantOutcome::kDropped;
      return true;
    case JournalEventKind::kInterrupted:
    case JournalEventKind::kError:
      // A device-side loss counts only once the session was assigned.
      *out = ParticipantOutcome::kDropped;
      return e.round.value != 0;
    default:
      return false;
  }
}

}  // namespace fl::analytics
