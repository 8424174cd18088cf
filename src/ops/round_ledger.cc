#include "src/ops/round_ledger.h"

#include "src/analytics/emit.h"
#include "src/common/json_writer.h"

namespace fl::ops {

RoundLedger::RoundLedger(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void RoundLedger::OnEvent(const analytics::Event& e) {
  if (!analytics::IsServerSource(e.source)) return;
  if (e.kind == analytics::JournalEventKind::kRoundOutcome) {
    if (enabled()) RecordOutcome(e);
    // After the ledger update (so a bundle capture sees this round) and
    // outside the lock (so the observer may read the ledger).
    if (e.outcome != protocol::RoundOutcome::kCommitted && on_abandoned_) {
      on_abandoned_(e.at, e.round, e.outcome);
    }
    return;
  }
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (analytics::IsServerError(e)) ++totals_.errors;
  protocol::ParticipantOutcome participant;
  if (analytics::ParticipantOutcomeOf(e, &participant)) {
    // Late rejections can land after the round closed; update the finished
    // record if it is still retained, else the open (or freshly-staged) one.
    RoundRecord* rec = FindFinishedLocked(e.round);
    if (rec == nullptr) {
      rec = &open_[e.round.value];
      rec->round = e.round;
    }
    switch (participant) {
      case protocol::ParticipantOutcome::kCompleted: ++rec->completed; break;
      case protocol::ParticipantOutcome::kAborted: ++rec->aborted; break;
      case protocol::ParticipantOutcome::kDropped: ++rec->dropped; break;
      case protocol::ParticipantOutcome::kRejectedLate:
        ++rec->rejected_late;
        break;
    }
    return;
  }
  switch (e.kind) {
    case analytics::JournalEventKind::kMasterAccepted:
      ++totals_.checkins_accepted;
      break;
    case analytics::JournalEventKind::kCheckinRejected:
      ++totals_.checkins_rejected;
      break;
    default:
      break;
  }
}

void RoundLedger::RecordOutcome(const analytics::Event& e) {
  std::lock_guard<std::mutex> lock(mu_);
  if (analytics::IsServerError(e)) ++totals_.errors;  // a failed round
  RoundRecord rec;
  if (auto it = open_.find(e.round.value); it != open_.end()) {
    rec = it->second;
    open_.erase(it);
  }
  rec.round = e.round;
  rec.finished_at = e.at;
  rec.outcome = e.outcome;
  if (e.outcome == protocol::RoundOutcome::kCommitted) {
    rec.contributors = e.count;  // a lost round's count is its loss reason's
    ++totals_.rounds_committed;
    rec.selection_duration = e.selection_duration;
    rec.round_duration = e.round_duration;
    rec.has_timing = true;
  } else {
    ++totals_.rounds_abandoned;
  }
  finished_.push_back(rec);
  while (finished_.size() > capacity_) finished_.pop_front();
}

RoundLedger::Totals RoundLedger::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

std::vector<RoundRecord> RoundLedger::Recent(std::size_t max) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RoundRecord> out;
  const std::size_t n = std::min(max, finished_.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(finished_[finished_.size() - 1 - i]);
  }
  return out;
}

std::string RoundLedger::RecentJson(std::size_t max) const {
  const Totals t = totals();
  const std::vector<RoundRecord> rounds = Recent(max);
  JsonWriter w;
  w.BeginObject();
  w.BeginObject("totals")
      .Field("rounds_committed", t.rounds_committed)
      .Field("rounds_abandoned", t.rounds_abandoned)
      .Field("checkins_accepted", t.checkins_accepted)
      .Field("checkins_rejected", t.checkins_rejected)
      .Field("errors", t.errors)
      .EndObject();
  w.BeginArray("rounds");
  for (const RoundRecord& r : rounds) {
    w.BeginObject()
        .Field("round", r.round.value)
        .Field("finished_at_ms", r.finished_at.millis)
        .Field("outcome", protocol::RoundOutcomeName(r.outcome))
        .Field("contributors", r.contributors)
        .Field("selection_seconds",
               r.has_timing ? r.selection_duration.millis / 1000.0 : -1.0)
        .Field("round_seconds",
               r.has_timing ? r.round_duration.millis / 1000.0 : -1.0)
        .Field("completed", r.completed)
        .Field("aborted", r.aborted)
        .Field("dropped", r.dropped)
        .Field("rejected_late", r.rejected_late)
        .EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

RoundRecord* RoundLedger::FindFinishedLocked(RoundId round) {
  for (auto it = finished_.rbegin(); it != finished_.rend(); ++it) {
    if (it->round == round) return &*it;
  }
  return nullptr;
}

}  // namespace fl::ops
