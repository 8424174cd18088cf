// End-to-end tests of the whole deployment: fleet simulator + actor server.
#include "src/core/fl_system.h"

#include <gtest/gtest.h>

#include "src/data/blobs.h"
#include "src/graph/model_zoo.h"
#include "tests/core/journal_invariants.h"

namespace fl::core {
namespace {

FLSystemConfig SmallConfig(std::uint64_t seed = 42) {
  FLSystemConfig config;
  config.seed = seed;
  config.population.device_count = 200;
  config.population.mean_examples_per_sec = 200;  // fast devices
  config.selector_count = 3;
  config.coordinator_tick = Seconds(10);
  config.stats_bucket = Minutes(10);
  config.pace.rendezvous_period = Minutes(3);
  return config;
}

protocol::RoundConfig SmallRound() {
  protocol::RoundConfig rc;
  rc.goal_count = 10;
  rc.overselection = 1.3;
  rc.selection_timeout = Minutes(4);
  rc.min_selection_fraction = 0.5;
  rc.reporting_deadline = Minutes(8);
  rc.min_reporting_fraction = 0.5;
  rc.devices_per_aggregator = 8;
  return rc;
}

graph::Model TestModel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return graph::BuildLogisticRegression(8, 4, rng);
}

FLSystem::DataProvisioner BlobsProvisioner(std::uint64_t seed = 5) {
  auto blobs =
      std::make_shared<data::BlobsWorkload>(
          data::BlobsParams{.classes = 4, .feature_dim = 8}, seed);
  return [blobs](const sim::DeviceProfile& profile, DeviceAgent& agent,
                 Rng& rng, SimTime now) {
    (void)rng;
    agent.GetOrCreateStore("default").AddBatch(
        blobs->UserExamples(profile.id.value, 40, now));
  };
}

TEST(FLSystemTest, CommitsRoundsAndImprovesModel) {
  const JournalInvariantCheck journal;
  FLSystem system(SmallConfig());
  const graph::Model model = TestModel();
  plan::TrainingHyperparams hyper;
  hyper.learning_rate = 0.3f;
  hyper.epochs = 2;
  system.AddTrainingTask("train", model, hyper, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(3));

  const FleetStats& stats = system.stats();
  EXPECT_GE(stats.rounds_committed(), 3u) << "abandoned="
                                          << stats.rounds_abandoned();
  EXPECT_GT(system.model_store().version(), 0u);

  // The committed model classifies the blob mixture far above chance.
  data::BlobsWorkload blobs({.classes = 4, .feature_dim = 8}, 5);
  const auto eval = blobs.GlobalExamples(77, 300, SimTime{0});
  const plan::FLPlan eval_plan = plan::MakeEvaluationPlan(model, "e", {});
  const auto metrics = fedavg::RunClientEvaluation(
      eval_plan.device, system.model_store().Latest(), eval, 3);
  ASSERT_TRUE(metrics.ok());
  EXPECT_GT(metrics->mean_accuracy, 0.5);
}

TEST(FLSystemTest, SessionShapesMatchPaperDistribution) {
  const JournalInvariantCheck journal;
  FLSystem system(SmallConfig(7));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(4));

  const auto& shapes = system.stats().shapes();
  ASSERT_GT(shapes.total(), 50u);
  // Successful sessions dominate (Table 1: 75%).
  EXPECT_GT(shapes.Fraction("-v[]+^"), 0.4);
  // Rejected/late and interrupted sessions both occur.
  const double rejected = shapes.Fraction("-v[]+#");
  EXPECT_GT(rejected, 0.0);
  // Completion ordering: success > late-rejection.
  EXPECT_GT(shapes.Fraction("-v[]+^"), rejected);
}

TEST(FLSystemTest, ParticipantAccountingConsistent) {
  const JournalInvariantCheck journal;
  FLSystem system(SmallConfig(9));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));

  const FleetStats& stats = system.stats();
  std::size_t completed = 0, aborted = 0, dropped = 0;
  for (const auto& [round, counts] : stats.per_round()) {
    completed += counts.completed;
    aborted += counts.aborted;
    dropped += counts.dropped;
  }
  EXPECT_GT(completed, 0u);
  // Over-selection (130%) means aborted/late work exists.
  EXPECT_GT(aborted + dropped, 0u);
  // Server accepted at least as many devices as reports committed.
  EXPECT_GE(stats.accepted(), completed);
}

TEST(FLSystemTest, TrafficIsDownloadDominated) {
  const JournalInvariantCheck journal;
  FLSystem system(SmallConfig(11));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));
  const FleetStats& stats = system.stats();
  ASSERT_GT(stats.total_download_bytes(), 0u);
  ASSERT_GT(stats.total_upload_bytes(), 0u);
  // Fig. 9: "download from server dominates upload" — each device gets plan
  // + model but sends only an update, and over-selected devices download
  // without a surviving upload.
  EXPECT_GT(stats.total_download_bytes(), stats.total_upload_bytes());
}

TEST(FLSystemTest, CompressionShrinksUploads) {
  FLSystemConfig raw_config = SmallConfig(13);
  FLSystemConfig compressed_config = SmallConfig(13);
  fedavg::CompressionConfig comp;
  comp.quantization_bits = 8;
  compressed_config.upload_compression = comp;

  auto run = [&](FLSystemConfig config) {
    const JournalInvariantCheck journal;
    FLSystem system(std::move(config));
    system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                           Seconds(30));
    system.ProvisionData(BlobsProvisioner());
    system.Start();
    system.RunFor(Hours(2));
    return std::pair<std::uint64_t, std::size_t>(
        system.stats().total_upload_bytes(),
        system.stats().rounds_committed());
  };
  const auto [raw_bytes, raw_rounds] = run(std::move(raw_config));
  const auto [comp_bytes, comp_rounds] = run(std::move(compressed_config));
  ASSERT_GT(raw_rounds, 0u);
  ASSERT_GT(comp_rounds, 0u);
  // Normalize per committed round to compare fairly.
  EXPECT_LT(static_cast<double>(comp_bytes) / comp_rounds,
            static_cast<double>(raw_bytes) / raw_rounds);
}

TEST(FLSystemTest, DeterministicReplay) {
  auto run = [] {
    const JournalInvariantCheck journal;
    FLSystem system(SmallConfig(21));
    system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                           Seconds(30));
    system.ProvisionData(BlobsProvisioner());
    system.Start();
    system.RunFor(Hours(1));
    return std::tuple<std::size_t, std::uint64_t, std::uint64_t>(
        system.stats().rounds_committed(), system.stats().accepted(),
        system.stats().total_download_bytes());
  };
  EXPECT_EQ(run(), run());
}

TEST(FLSystemTest, NonGenuineDevicesExcluded) {
  FLSystemConfig config = SmallConfig(23);
  config.population.non_genuine_fraction = 0.3;
  const JournalInvariantCheck journal;
  FLSystem system(std::move(config));
  system.AddTrainingTask("train", TestModel(), {}, {}, SmallRound(),
                         Seconds(30));
  system.ProvisionData(BlobsProvisioner());
  system.Start();
  system.RunFor(Hours(2));
  // Attestation failures were recorded and rounds still commit.
  EXPECT_GT(system.frontend().attestation_failures(), 0u);
  EXPECT_GT(system.stats().rounds_committed(), 0u);
}

}  // namespace
}  // namespace fl::core
