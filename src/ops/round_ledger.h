// Per-round ledger for the /rounds endpoint: a fold over the emitted Events
// that keeps the last K finished rounds as structured records (phase
// durations, contributor counts, per-participant outcome tallies, checkin
// accept/reject totals).
//
// FLSystem binds it to the deployment's EventBus next to FleetStats. It is
// disabled by default: with the ops plane off, every event costs one
// branch, which is what the <=2% overhead gate in bench_ops_plane measures.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/analytics/journal.h"

namespace fl::ops {

struct RoundRecord {
  RoundId round{};
  SimTime finished_at{};  // when the outcome was reported
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kFailed;
  std::size_t contributors = 0;
  Duration selection_duration{};
  Duration round_duration{};
  bool has_timing = false;
  // Per-participant outcome tallies for this round.
  std::size_t completed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t rejected_late = 0;
};

class RoundLedger final {
 public:
  // `capacity` bounds the retained finished rounds.
  explicit RoundLedger(std::size_t capacity = 256);

  // Recording is off until enabled (FLSystem enables it with the ops
  // plane).
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_release);
  }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  // Anomaly hook: fires on every non-committed round outcome, even while
  // recording is disabled (the diagnostic bundler must trigger with the ops
  // plane off). Called outside the ledger lock, so the observer may read
  // RecentJson()/totals(). Set before the sim starts; not thread-safe to
  // swap mid-run.
  using AbandonedObserver =
      std::function<void(SimTime, RoundId, protocol::RoundOutcome)>;
  void set_on_abandoned(AbandonedObserver observer) {
    on_abandoned_ = std::move(observer);
  }

  // Folds one server-side fact (device-observed ones are skipped).
  void OnEvent(const analytics::Event& e);

  // Cumulative totals since enable (checkin accept/reject, commit/abandon).
  struct Totals {
    std::uint64_t rounds_committed = 0;
    std::uint64_t rounds_abandoned = 0;
    std::uint64_t checkins_accepted = 0;
    std::uint64_t checkins_rejected = 0;
    std::uint64_t errors = 0;
  };
  Totals totals() const;

  // Most recent finished rounds, newest first, at most `max`.
  std::vector<RoundRecord> Recent(std::size_t max = SIZE_MAX) const;

  // {"totals":{...},"rounds":[...]} for /rounds; newest first.
  std::string RecentJson(std::size_t max) const;

  std::size_t capacity() const { return capacity_; }

 private:
  // Finds a finished round by id (newest first); nullptr when evicted.
  RoundRecord* FindFinishedLocked(RoundId round);

  void RecordOutcome(const analytics::Event& e);

  const std::size_t capacity_;
  std::atomic<bool> enabled_{false};
  AbandonedObserver on_abandoned_;

  mutable std::mutex mu_;
  // Participant tallies for rounds that have not reported an outcome yet.
  std::map<std::uint64_t, RoundRecord> open_;
  std::deque<RoundRecord> finished_;  // oldest at front
  Totals totals_;
};

}  // namespace fl::ops
