// Focused device-behaviour tests over the full stack: pace-steering
// compliance, give-up timers, data expiration + refresh, and eligibility
// interruptions — the Sec. 3 contract points not already covered by the
// round-level integration tests.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/analytics/journal.h"
#include "src/core/fl_system.h"
#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "src/tools/log_analyzer.h"
#include "tests/core/journal_invariants.h"

namespace fl::core {
namespace {

FLSystemConfig BaseConfig(std::uint64_t seed) {
  FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = 120;
  config.population.mean_examples_per_sec = 200;
  config.selector_count = 2;
  config.pace.rendezvous_period = Minutes(3);
  config.stats_bucket = Minutes(10);
  return config;
}

protocol::RoundConfig SmallRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 8;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;
  return rc;
}

graph::Model TestModel() {
  Rng rng(1);
  return graph::BuildLogisticRegression(8, 4, rng);
}

FLSystem::DataProvisioner Provisioner(std::size_t per_device = 40) {
  auto blobs = std::make_shared<data::BlobsWorkload>(
      data::BlobsParams{.classes = 4, .feature_dim = 8}, 5);
  return [blobs, per_device](const sim::DeviceProfile& profile,
                             DeviceAgent& agent, Rng&, SimTime now) {
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, per_device, now));
  };
}

TEST(DeviceBehaviorTest, CheckinCadenceBoundsSessionRate) {
  // With an hour-long cadence a device cannot start more than ~runtime/cadence
  // sessions, no matter how often the server would have it back.
  FLSystemConfig config = BaseConfig(3);
  config.device_checkin_cadence = Hours(1);
  const JournalInvariantCheck journal;
  FLSystem system(std::move(config));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(Provisioner());
  system.Start();
  system.RunFor(Hours(10));
  for (DeviceAgent* agent : system.devices()) {
    EXPECT_LE(agent->sessions_started(), 11u) << agent->profile().id;
  }
}

TEST(DeviceBehaviorTest, StarvedStoresProduceModelIssueErrors) {
  // Plans whose selection criteria exceed on-device data fail at training
  // start — the "-v[*" model-issue shape from Sec. 5.
  const JournalInvariantCheck journal;
  FLSystem system(BaseConfig(5));
  plan::ExampleSelector selector;
  selector.min_examples = 1000;  // no device has this much
  system.AddTrainingTask("train", TestModel(), {}, selector, SmallRound(),
                         Seconds(30));
  system.ProvisionData(Provisioner(40));
  system.Start();
  system.RunFor(Hours(3));
  EXPECT_EQ(system.stats().rounds_committed(), 0u);
  EXPECT_GT(system.stats().shapes().Fraction("-v[*"), 0.5);
}

TEST(DeviceBehaviorTest, ExpiredDataStopsTrainingUntilRefresh) {
  // With a short max_example_age and no refresh, rounds dry up once data
  // ages out; with periodic refresh they keep flowing.
  auto run = [](Duration refresh) {
    FLSystemConfig config = BaseConfig(7);
    config.data_refresh_period = refresh;
    const JournalInvariantCheck journal;
    FLSystem system(std::move(config));
    plan::ExampleSelector selector;
    selector.max_example_age = Hours(2);
    system.AddTrainingTask("train", TestModel(), {}, selector, SmallRound(),
                           Seconds(30));
    system.ProvisionData(Provisioner(40));
    system.Start();
    system.RunFor(Hours(4));
    const std::size_t early = system.stats().rounds_committed();
    system.RunFor(Hours(8));
    return std::pair<std::size_t, std::size_t>(
        early, system.stats().rounds_committed());
  };
  const auto [stale_early, stale_total] = run(Duration{0});  // never refresh
  const auto [fresh_early, fresh_total] = run(Hours(1));
  EXPECT_GT(stale_early, 0u);
  // Without refresh, progress stalls after the data ages out.
  EXPECT_LT(stale_total - stale_early, (fresh_total - fresh_early) / 2 + 3);
  EXPECT_GT(fresh_total, stale_total);
}

TEST(DeviceBehaviorTest, DevicesGiveUpAndRetryWhenServerGoesSilent) {
  // Kill ALL selectors: no device may wedge on the dead stream — each one
  // must hit its give-up timer, end the session, and keep retrying (in
  // production new connections would land on surviving selectors).
  const JournalInvariantCheck journal;
  FLSystem system(BaseConfig(9));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(Provisioner());
  system.Start();
  system.RunFor(Hours(1));
  const std::size_t committed_before = system.stats().rounds_committed();
  for (const ActorId sel : system.selector_ids()) {
    system.actor_system().Crash(sel);
  }
  system.RunFor(Hours(1));
  std::uint64_t sessions_mid = 0;
  for (DeviceAgent* agent : system.devices()) {
    sessions_mid += agent->sessions_started();
  }
  system.RunFor(Hours(1));
  std::uint64_t sessions_late = 0;
  for (DeviceAgent* agent : system.devices()) {
    sessions_late += agent->sessions_started();
  }
  // Still cycling: give-up timers fire and devices retry rather than hang.
  EXPECT_GT(sessions_late, sessions_mid);
  // But no progress is possible with every selector dead.
  EXPECT_EQ(system.stats().rounds_committed(), committed_before);
  // Nobody is stuck in waiting beyond the eligible sub-population.
  const auto& waiting =
      system.stats().StateSeries(analytics::DeviceState::kWaiting);
  EXPECT_LT(waiting.Mean(waiting.bucket_count() - 1),
            static_cast<double>(system.device_count()));
}

TEST(DeviceBehaviorTest, InterruptionsProduceDropsNotHangs) {
  // Brutal interruption regime: plenty of '!' shapes, yet the system keeps
  // committing rounds.
  FLSystemConfig config = BaseConfig(11);
  config.population.mean_eligible_day = Minutes(4);
  config.population.mean_eligible_night = Minutes(8);
  config.population.mean_examples_per_sec = 2;  // minutes-long training
  const JournalInvariantCheck journal;
  FLSystem system(std::move(config));
  protocol::RoundConfig rc = SmallRound();
  rc.overselection = 1.6;
  system.AddTrainingTask("train", TestModel(), {}, {}, rc, Seconds(30));
  system.ProvisionData(Provisioner(120));
  system.Start();
  system.RunFor(Hours(6));
  EXPECT_GT(system.stats().shapes().Fraction("-v[!"), 0.05);
  EXPECT_GT(system.stats().rounds_committed(), 0u);
}

// A Secure Aggregation session whose upload was accepted ('^') stays online
// for the Finalization round. Losing eligibility then just ends it: the
// device already counted as the round's completed participant, so it must
// not also journal '!' (which fl_analyze flags after '^') or count as a
// drop. Short eligibility windows make the interrupt land in that wait.
TEST(DeviceBehaviorTest, InterruptAfterAcceptedSecAggUploadIsNotADrop) {
  FLSystemConfig config = BaseConfig(11);
  config.population.mean_eligible_day = Minutes(4);
  config.population.mean_eligible_night = Minutes(8);
  const std::string path = ::testing::TempDir() + "secagg_linger." +
                           std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(analytics::Journal::Global().Open(path).ok());
  std::map<RoundId, RoundParticipantCounts> per_round;
  {
    FLSystem system(std::move(config));
    protocol::RoundConfig rc = SmallRound();
    rc.aggregation = protocol::AggregationMode::kSecure;
    rc.overselection = 1.6;
    system.AddTrainingTask("train", TestModel(), {}, {}, rc, Seconds(30));
    system.ProvisionData(Provisioner());
    system.Start();
    system.RunFor(Hours(4));
    per_round = system.stats().per_round();
  }
  analytics::Journal::Global().Close();

  const auto report = tools::AnalyzeJournalFile(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->parse_errors, 0u);
  EXPECT_TRUE(report->violations.empty()) << tools::RenderViolations(*report);

  using analytics::JournalEventKind;
  using analytics::JournalSource;
  // Device sessions whose upload the aggregator accepted, and how many of
  // them ended without completing (interrupted while waiting).
  std::set<std::pair<std::uint64_t, std::uint64_t>> accepted_uploads;
  std::map<RoundId, std::size_t> reports_accepted;
  std::size_t ended_while_waiting = 0;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto rec = analytics::JournalRecord::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    if (rec->event == JournalEventKind::kReportAccepted) {
      ++reports_accepted[rec->round];
      continue;
    }
    if (rec->source != JournalSource::kDevice) continue;
    const auto key = std::make_pair(rec->device.value, rec->session.value);
    switch (rec->event) {
      case JournalEventKind::kUploadComplete:
        accepted_uploads.insert(key);
        break;
      case JournalEventKind::kInterrupted:
      case JournalEventKind::kError:
        EXPECT_EQ(accepted_uploads.count(key), 0u) << line;
        break;
      case JournalEventKind::kSessionEnd:
        if (accepted_uploads.erase(key) != 0 &&
            analytics::DetailInt(rec->detail, "completed", -1) == 0) {
          ++ended_while_waiting;
        }
        break;
      default:
        break;
    }
  }
  EXPECT_GT(ended_while_waiting, 0u);
  // Every accepted report is one completed participant, whatever its
  // device did afterwards.
  for (const auto& [round, n] : reports_accepted) {
    EXPECT_EQ(per_round[round].completed, n) << round.value;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::core
