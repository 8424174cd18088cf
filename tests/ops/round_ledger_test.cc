#include "src/ops/round_ledger.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/ops/json.h"

namespace fl::ops {
namespace {

using protocol::ParticipantOutcome;
using protocol::RoundOutcome;

using analytics::Event;
using analytics::FlightReason;
using analytics::JournalEventKind;
using analytics::JournalSource;

SimTime At(std::int64_t ms) { return SimTime{ms}; }

// The server facts the ledger folds, as the actors emit them.
Event Outcome(std::int64_t ms, std::uint64_t round, RoundOutcome outcome,
              std::uint32_t contributors, Duration selection = {},
              Duration total = {}) {
  return {.at = At(ms),
          .source = JournalSource::kCoordinator,
          .kind = JournalEventKind::kRoundOutcome,
          .outcome = outcome,
          .count = contributors,
          .round = RoundId{round},
          .selection_duration = selection,
          .round_duration = total};
}

Event Participant(std::int64_t ms, std::uint64_t round, std::uint64_t device,
                  ParticipantOutcome outcome) {
  Event e{.at = At(ms),
          .source = JournalSource::kAggregator,
          .device = DeviceId{device},
          .round = RoundId{round}};
  switch (outcome) {
    case ParticipantOutcome::kCompleted:
      e.kind = JournalEventKind::kReportAccepted;
      break;
    case ParticipantOutcome::kRejectedLate:
      e.kind = JournalEventKind::kReportRejected;
      e.reason = FlightReason::kLate;
      break;
    case ParticipantOutcome::kAborted:
      e.kind = JournalEventKind::kParticipantAborted;
      break;
    case ParticipantOutcome::kDropped:
      e.kind = JournalEventKind::kParticipantDropped;
      break;
  }
  return e;
}

Event Fact(std::int64_t ms, JournalEventKind kind) {
  return {.at = At(ms), .source = JournalSource::kMaster, .kind = kind};
}

TEST(RoundLedgerTest, StagesParticipantsAndTimingUntilOutcome) {
  RoundLedger ledger;
  ledger.set_enabled(true);

  // Every participant of round 7 settles before its outcome; the timing
  // rides on the committed outcome itself.
  ledger.OnEvent(
      Participant(1, 7, 1, ParticipantOutcome::kCompleted));
  ledger.OnEvent(
      Participant(2, 7, 2, ParticipantOutcome::kCompleted));
  ledger.OnEvent(
      Participant(3, 7, 3, ParticipantOutcome::kDropped));
  ledger.OnEvent(
      Participant(4, 7, 4, ParticipantOutcome::kAborted));
  ledger.OnEvent(
      Participant(5, 7, 5, ParticipantOutcome::kRejectedLate));
  EXPECT_TRUE(ledger.Recent().empty());  // not finished yet

  ledger.OnEvent(Outcome(7, 7, RoundOutcome::kCommitted, 2, Millis(250),
                         Millis(1500)));
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 1u);
  const RoundRecord& r = recent[0];
  EXPECT_EQ(r.round.value, 7u);
  EXPECT_EQ(r.finished_at.millis, 7);
  EXPECT_EQ(r.outcome, RoundOutcome::kCommitted);
  EXPECT_EQ(r.contributors, 2u);
  EXPECT_TRUE(r.has_timing);
  EXPECT_EQ(r.selection_duration.millis, 250);
  EXPECT_EQ(r.round_duration.millis, 1500);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.aborted, 1u);
  EXPECT_EQ(r.dropped, 1u);
  EXPECT_EQ(r.rejected_late, 1u);
}

TEST(RoundLedgerTest, LateParticipantOutcomeUpdatesFinishedRecord) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.OnEvent(Outcome(1, 3, RoundOutcome::kCommitted, 1));
  // A straggler reports after the round already closed.
  ledger.OnEvent(
      Participant(2, 3, 8, ParticipantOutcome::kRejectedLate));
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].rejected_late, 1u);
}

TEST(RoundLedgerTest, CapacityEvictsOldestAndRecentIsNewestFirst) {
  RoundLedger ledger(/*capacity=*/3);
  ledger.set_enabled(true);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ledger.OnEvent(Outcome(static_cast<std::int64_t>(i), i,
                           RoundOutcome::kCommitted,
                           static_cast<std::uint32_t>(i)));
  }
  const auto recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].round.value, 5u);
  EXPECT_EQ(recent[1].round.value, 4u);
  EXPECT_EQ(recent[2].round.value, 3u);

  // `max` truncates from the newest end.
  const auto top1 = ledger.Recent(1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0].round.value, 5u);
}

TEST(RoundLedgerTest, TotalsTallyOutcomesAndCheckins) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.OnEvent(Outcome(1, 1, RoundOutcome::kCommitted, 2));
  ledger.OnEvent(Outcome(2, 2, RoundOutcome::kAbandonedSelection, 0));
  ledger.OnEvent(Outcome(3, 3, RoundOutcome::kAbandonedReporting, 1));
  ledger.OnEvent(Outcome(4, 4, RoundOutcome::kFailed, 0));
  ledger.OnEvent(Fact(5, JournalEventKind::kMasterAccepted));
  ledger.OnEvent(Fact(6, JournalEventKind::kMasterAccepted));
  ledger.OnEvent(Fact(7, JournalEventKind::kCheckinRejected));
  ledger.OnEvent(Fact(8, JournalEventKind::kServerError));

  const RoundLedger::Totals totals = ledger.totals();
  EXPECT_EQ(totals.rounds_committed, 1u);
  EXPECT_EQ(totals.rounds_abandoned, 3u);  // kFailed counts as not-committed
  EXPECT_EQ(totals.checkins_accepted, 2u);
  EXPECT_EQ(totals.checkins_rejected, 1u);
  EXPECT_EQ(totals.errors, 2u);  // the server error and the failed round
}

TEST(RoundLedgerTest, RecentJsonIsValidAndNewestFirst) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.OnEvent(
      Outcome(2, 1, RoundOutcome::kCommitted, 4, Millis(100), Millis(2000)));
  ledger.OnEvent(Outcome(3, 2, RoundOutcome::kAbandonedSelection, 0));

  const auto parsed = JsonValue::Parse(ledger.RecentJson(10));
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const JsonValue& root = parsed.value();

  ASSERT_NE(root.FindPath("totals"), nullptr);
  EXPECT_EQ(root.FindPath("totals.rounds_committed")->AsInt(), 1);
  EXPECT_EQ(root.FindPath("totals.rounds_abandoned")->AsInt(), 1);

  const JsonValue* rounds = root.Find("rounds");
  ASSERT_NE(rounds, nullptr);
  ASSERT_EQ(rounds->size(), 2u);
  // Newest first: round 2 (abandoned, no timing) then round 1.
  EXPECT_EQ((*rounds)[0].Find("round")->AsInt(), 2);
  EXPECT_EQ((*rounds)[0].Find("outcome")->AsString(), "abandoned_selection");
  EXPECT_DOUBLE_EQ((*rounds)[0].Find("selection_seconds")->AsDouble(), -1.0);
  EXPECT_EQ((*rounds)[1].Find("round")->AsInt(), 1);
  EXPECT_EQ((*rounds)[1].Find("outcome")->AsString(), "committed");
  EXPECT_EQ((*rounds)[1].Find("contributors")->AsInt(), 4);
  EXPECT_DOUBLE_EQ((*rounds)[1].Find("selection_seconds")->AsDouble(), 0.1);
  EXPECT_DOUBLE_EQ((*rounds)[1].Find("round_seconds")->AsDouble(), 2.0);

  // Limit applies.
  const auto limited = JsonValue::Parse(ledger.RecentJson(1));
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited.value().Find("rounds")->size(), 1u);
}

TEST(RoundLedgerTest, DisableStopsRecordingButKeepsHistory) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  ledger.OnEvent(Outcome(1, 1, RoundOutcome::kCommitted, 1));
  ledger.set_enabled(false);
  ledger.OnEvent(Outcome(2, 2, RoundOutcome::kCommitted, 1));
  EXPECT_EQ(ledger.Recent().size(), 1u);
  EXPECT_EQ(ledger.totals().rounds_committed, 1u);
}

// A lost round's count is its loss reason's (here: devices still pending at
// the selection timeout), so the ledger records no contributors for it.
TEST(RoundLedgerTest, LostRoundRecordsNoContributors) {
  RoundLedger ledger;
  ledger.set_enabled(true);
  Event timeout = Outcome(1, 9, RoundOutcome::kAbandonedSelection, 4);
  timeout.reason = FlightReason::kSelectionTimeout;
  ledger.OnEvent(timeout);
  const std::vector<RoundRecord> recent = ledger.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent[0].contributors, 0u);
  EXPECT_EQ(recent[0].outcome, RoundOutcome::kAbandonedSelection);
}

// The diagnostic bundler hangs off this hook, so it must fire with the ops
// plane (and ledger recording) off.
TEST(RoundLedgerTest, AbandonedHookFiresWhileDisabled) {
  RoundLedger ledger;
  ASSERT_FALSE(ledger.enabled());
  std::vector<std::uint64_t> abandoned;
  ledger.set_on_abandoned([&](SimTime, RoundId round, RoundOutcome) {
    abandoned.push_back(round.value);
  });
  ledger.OnEvent(Outcome(1, 1, RoundOutcome::kCommitted, 3));
  ledger.OnEvent(Outcome(2, 2, RoundOutcome::kAbandonedSelection, 0));
  EXPECT_EQ(abandoned, std::vector<std::uint64_t>{2});
  EXPECT_TRUE(ledger.Recent().empty());
}

}  // namespace
}  // namespace fl::ops
