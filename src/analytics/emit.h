// One event path (Sec. 5): every server and device fact is emitted once, as
// one typed Event, through Emit(). Emit fans it out to a fixed set of
// consumers:
//   * the fl_server_* metrics counters (server facts, while telemetry is on),
//   * the flight ring (journaled kinds, while the recorder is on),
//   * the journal writer (journaled kinds, while a journal is open),
// and EventBus::Emit adds the deployment's own folds: FLSystem binds its
// FleetStats and RoundLedger there.
#pragma once

#include <functional>

#include "src/analytics/flight_dump.h"
#include "src/analytics/journal.h"
#include "src/telemetry/telemetry.h"

namespace fl::analytics {

// Facts the server side observed (the fl_server_* counters and the round
// ledger count only these; FleetStats also folds device-observed drops and
// traffic).
inline bool IsServerSource(JournalSource s) {
  return s != JournalSource::kDevice && s != JournalSource::kSim;
}

void CountServerFact(const Event& e);  // the fl_server_* counters

// Inline gates: a site whose consumers are all off costs a few loads. The
// modeling simulator's (kSim) events are journal-only; its thread needs no
// flight ring.
inline void Emit(const Event& e) {
  if (IsJournaled(e.kind)) {
    if (telemetry::FlightRecorderEnabled() && e.source != JournalSource::kSim) {
      RecordFlight(e);
    }
    if (JournalEnabled()) Journal::Global().Append(e);
  }
  if (telemetry::Enabled() && IsServerSource(e.source)) CountServerFact(e);
}

// The per-deployment emission point the server actors and device agents
// hold. `fold` sees every event after the process-wide consumers.
class EventBus {
 public:
  using Fold = std::function<void(const Event&)>;
  // Registers the fl_server_* series, so readers find them from the
  // deployment's start.
  explicit EventBus(Fold fold = {});

  void Emit(const Event& e) const {
    analytics::Emit(e);
    if (fold_) fold_(e);
  }

 private:
  Fold fold_;
};

// Server errors (Sec. 5's error counter): an explicit kServerError, a report
// refused as corrupt or unaccumulable, or a round that failed outright.
bool IsServerError(const Event& e);

// The participant outcome an event settles, if any: an accepted report
// completes, a late one is rejected_late, a refused one or a device-side
// loss of an assigned session drops, and a closed link aborts or drops.
bool ParticipantOutcomeOf(const Event& e, protocol::ParticipantOutcome* out);

}  // namespace fl::analytics
