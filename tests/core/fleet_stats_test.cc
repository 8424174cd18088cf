#include "src/core/fleet_stats.h"

#include <gtest/gtest.h>

namespace fl::core {
namespace {

using analytics::DeviceState;
using analytics::Event;
using analytics::FlightReason;
using analytics::JournalEventKind;
using analytics::JournalSource;
using protocol::RoundOutcome;

Event Outcome(SimTime at, std::uint64_t round, RoundOutcome outcome,
              std::uint32_t contributors, Duration selection = {},
              Duration total = {}) {
  return {.at = at,
          .source = JournalSource::kCoordinator,
          .kind = JournalEventKind::kRoundOutcome,
          .outcome = outcome,
          .count = contributors,
          .round = RoundId{round},
          .selection_duration = selection,
          .round_duration = total};
}

Event Fact(SimTime at, JournalSource source, JournalEventKind kind,
           RoundId round = {}, std::uint64_t bytes = 0) {
  return {.at = at, .source = source, .kind = kind, .round = round,
          .bytes = bytes};
}

TEST(FleetStatsTest, RoundOutcomeCountsAndSeries) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.OnEvent(
      Outcome(SimTime{Minutes(5).millis}, 1, RoundOutcome::kCommitted, 20));
  stats.OnEvent(Outcome(SimTime{Minutes(15).millis}, 2,
                        RoundOutcome::kAbandonedReporting, 0));
  EXPECT_EQ(stats.rounds_committed(), 1u);
  EXPECT_EQ(stats.rounds_abandoned(), 1u);
  EXPECT_DOUBLE_EQ(stats.round_completions().Sum(0), 1.0);
  EXPECT_DOUBLE_EQ(stats.round_failures().Sum(1), 1.0);
  ASSERT_EQ(stats.round_log().size(), 2u);
  EXPECT_EQ(stats.round_log()[0].outcome, RoundOutcome::kCommitted);
  EXPECT_EQ(stats.round_log()[0].contributors, 20u);
}

// A lost round's count belongs to its loss reason (devices left pending at a
// selection timeout, reports received below min_report): the round log still
// shows no contributors for it.
TEST(FleetStatsTest, LostRoundLogsNoContributors) {
  FleetStats stats(SimTime{0}, Minutes(10));
  Event timeout = Outcome(SimTime{1}, 3, RoundOutcome::kAbandonedSelection, 4);
  timeout.reason = FlightReason::kSelectionTimeout;
  Event below = Outcome(SimTime{2}, 4, RoundOutcome::kAbandonedReporting, 2);
  below.reason = FlightReason::kBelowMinReports;
  below.min_report = 5;
  stats.OnEvent(timeout);
  stats.OnEvent(below);
  ASSERT_EQ(stats.round_log().size(), 2u);
  EXPECT_EQ(stats.round_log()[0].contributors, 0u);
  EXPECT_EQ(stats.round_log()[1].contributors, 0u);
  EXPECT_EQ(stats.rounds_abandoned(), 2u);
}

TEST(FleetStatsTest, TimingPatchesTheMatchingLogRow) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.OnEvent(Outcome(SimTime{1}, 7, RoundOutcome::kCommitted, 5,
                        Minutes(2), Minutes(6)));
  ASSERT_TRUE(stats.round_log()[0].has_timing);
  EXPECT_EQ(stats.round_log()[0].selection_duration, Minutes(2));
  EXPECT_EQ(stats.round_log()[0].round_duration, Minutes(6));
  EXPECT_NEAR(stats.round_duration_hist().Mean(), 6.0, 1e-9);
}

TEST(FleetStatsTest, ParticipantOutcomesBucketPerRound) {
  FleetStats stats(SimTime{0}, Minutes(10));
  const RoundId r{3};
  stats.OnEvent(Fact(SimTime{1}, JournalSource::kAggregator,
                     JournalEventKind::kReportAccepted, r));
  Event late = Fact(SimTime{1}, JournalSource::kAggregator,
                    JournalEventKind::kReportRejected, r);
  late.reason = FlightReason::kLate;
  stats.OnEvent(late);
  stats.OnEvent(Fact(SimTime{1}, JournalSource::kAggregator,
                     JournalEventKind::kParticipantAborted, r));
  // A device-observed drop: the '!' of an assigned session.
  stats.OnEvent(Fact(SimTime{1}, JournalSource::kDevice,
                     JournalEventKind::kInterrupted, r));
  // '!' before assignment (no round) is no participant outcome.
  stats.OnEvent(Fact(SimTime{1}, JournalSource::kDevice,
                     JournalEventKind::kInterrupted));
  ASSERT_EQ(stats.per_round().size(), 1u);
  const auto& counts = stats.per_round().at(r);
  EXPECT_EQ(counts.completed, 1u);
  EXPECT_EQ(counts.aborted, 2u);  // late + aborted fold together (Fig. 7)
  EXPECT_EQ(counts.dropped, 1u);
}

TEST(FleetStatsTest, StateTransitionsDriveSampledSeries) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.OnDeviceStateChange(DeviceState::kIdle, DeviceState::kIdle);
  stats.OnDeviceStateChange(DeviceState::kIdle, DeviceState::kWaiting);
  stats.SampleStates(SimTime{Minutes(1).millis});
  EXPECT_DOUBLE_EQ(stats.StateSeries(DeviceState::kWaiting).Mean(0), 1.0);
  stats.OnDeviceStateChange(DeviceState::kWaiting,
                            DeviceState::kParticipating);
  stats.SampleStates(SimTime{Minutes(2).millis});
  EXPECT_DOUBLE_EQ(stats.StateSeries(DeviceState::kParticipating).Mean(0),
                   0.5);  // two samples: 0 then 1
}

TEST(FleetStatsTest, TrafficTotalsAccumulate) {
  FleetStats stats(SimTime{0}, Minutes(10));
  const auto traffic = [&](std::int64_t t, JournalEventKind kind,
                           std::uint64_t bytes) {
    stats.OnEvent(Fact(SimTime{t}, JournalSource::kAggregator, kind, {}, bytes));
  };
  traffic(1, JournalEventKind::kDownload, 1000);
  traffic(2, JournalEventKind::kUpload, 300);
  traffic(3, JournalEventKind::kDownload, 500);
  traffic(3, JournalEventKind::kUpload, 200);
  EXPECT_EQ(stats.total_download_bytes(), 1500u);
  EXPECT_EQ(stats.total_upload_bytes(), 500u);
}

TEST(FleetStatsTest, ShortTracesExcludedFromTableOne) {
  FleetStats stats(SimTime{0}, Minutes(10));
  analytics::SessionTrace rejected_only;
  rejected_only.events = {analytics::SessionEvent::kCheckin};
  stats.OnSessionTrace(rejected_only);  // a bare rejection, not a session
  EXPECT_EQ(stats.shapes().total(), 0u);
  analytics::SessionTrace real;
  real.events = {analytics::SessionEvent::kCheckin,
                 analytics::SessionEvent::kDownloadedPlan};
  stats.OnSessionTrace(real);
  EXPECT_EQ(stats.shapes().total(), 1u);
}

TEST(FleetStatsTest, ErrorsCounted) {
  FleetStats stats(SimTime{0}, Minutes(10));
  stats.OnEvent(Fact(SimTime{1}, JournalSource::kAggregator,
                     JournalEventKind::kServerError));
  stats.OnEvent(Fact(SimTime{2}, JournalSource::kFrontend,
                     JournalEventKind::kServerError));
  EXPECT_EQ(stats.errors(), 2u);
}

}  // namespace
}  // namespace fl::core
