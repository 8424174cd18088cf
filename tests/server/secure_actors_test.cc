// Actor-level tests of the Aggregator's Secure Aggregation orchestration
// (Sec. 6) with scripted devices that run real SecAggClient state machines.
#include <gtest/gtest.h>

#include <cstring>

#include "src/common/fixed_point.h"
#include "src/fedavg/codec.h"
#include "src/graph/model_zoo.h"
#include "src/secagg/client.h"
#include "src/server/aggregator.h"
#include "src/server/master_aggregator.h"

namespace fl::server {
namespace {

crypto::Key256 KeyFrom(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

class ProbeActor final : public actor::Actor {
 public:
  void OnMessage(const actor::Envelope& env) override {
    if (const auto* m = std::any_cast<MsgRoundComplete>(&env.payload)) {
      completes.push_back(*m);
    } else if (const auto* m =
                   std::any_cast<MsgRoundAbandoned>(&env.payload)) {
      abandons.push_back(*m);
    }
  }
  std::vector<MsgRoundComplete> completes;
  std::vector<MsgRoundAbandoned> abandons;
};

// A scripted device driving a real SecAggClient against the Aggregator.
// `die_at` controls drop-out: 0=never, 1=before advertise, 2=before shares,
// 3=before masked input, 4=before unmask response.
struct SecureFakeDevice {
  DeviceId id;
  int die_at = 0;
  float update_value = 0.0f;  // every model coordinate of the plain update
  float weight = 10.0f;

  actor::ActorSystem* system = nullptr;
  sim::EventQueue* queue = nullptr;
  Rng rng{0};
  std::optional<secagg::SecAggClient> client;
  std::optional<TaskAssignment> assignment;
  std::optional<Checkpoint> global;
  bool acked = false;
  bool ack_accepted = false;

  DeviceLink Link() {
    DeviceLink link;
    link.device = id;
    link.session = SessionId{id.value};
    link.runtime_version = 3;
    link.assign = [this](const TaskAssignment& a) { OnAssign(a); };
    link.reject = [](const RejectionNotice&) {};
    link.report_ack = [this](const ReportAck& ack) {
      acked = true;
      ack_accepted = ack.accepted;
    };
    link.secagg_directory = [this](const SecAggDirectoryMsg& m) {
      OnDirectory(m);
    };
    link.secagg_shares = [this](const SecAggSharesMsg& m) { OnShares(m); };
    link.secagg_unmask = [this](const SecAggUnmaskMsg& m) { OnUnmask(m); };
    link.closed = [](const ConnectionClosed&) {};
    return link;
  }

  void OnAssign(const TaskAssignment& a) {
    assignment = a;
    global = std::move(Checkpoint::Deserialize(*a.model_bytes)).value();
    if (die_at == 1) return;
    client.emplace(a.secagg_index, a.secagg_threshold,
                   a.secagg_vector_length, KeyFrom(rng));
    SecAggAdvertiseMsg msg;
    msg.device = id;
    msg.round = a.round;
    msg.advertisement = client->AdvertiseKeys();
    system->Send(ActorId{}, a.aggregator, msg);
  }

  void OnDirectory(const SecAggDirectoryMsg& m) {
    if (die_at == 2 || !client) return;
    auto shares = client->ShareKeys(m.directory);
    ASSERT_TRUE(shares.ok()) << shares.status();
    SecAggShareKeysMsg msg;
    msg.device = id;
    msg.round = assignment->round;
    msg.message = std::move(shares).value();
    system->Send(ActorId{}, assignment->aggregator, msg);
  }

  void OnShares(const SecAggSharesMsg& m) {
    if (!client) return;
    for (const auto& s : m.shares) client->ReceiveShare(s);
    if (die_at == 3) return;
    // Build the quantized update: all coordinates = update_value, trailing
    // word = weight.
    const FixedPointCodec codec(assignment->secagg_clip,
                                assignment->secagg_max_summands);
    std::vector<std::uint32_t> words(assignment->secagg_vector_length);
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      words[i] = codec.Encode(update_value);
    }
    words.back() = static_cast<std::uint32_t>(weight);
    auto masked = client->MaskInput(words, m.u1);
    ASSERT_TRUE(masked.ok()) << masked.status();
    SecAggMaskedInputMsg msg;
    msg.device = id;
    msg.round = assignment->round;
    msg.input = std::move(masked).value();
    msg.metrics.mean_loss = 0.5;
    msg.metrics.example_count = static_cast<std::size_t>(weight);
    system->Send(ActorId{}, assignment->aggregator, msg);
  }

  void OnUnmask(const SecAggUnmaskMsg& m) {
    if (die_at == 4 || !client) return;
    auto resp = client->Unmask(m.request);
    ASSERT_TRUE(resp.ok()) << resp.status();
    SecAggUnmaskResponseMsg msg;
    msg.device = id;
    msg.round = assignment->round;
    msg.response = std::move(resp).value();
    system->Send(ActorId{}, assignment->aggregator, msg);
  }
};

struct SecureHarness : public ::testing::Test {
  SecureHarness()
      : context_obj(queue),
        system(context_obj),
        pace({}, nullptr),
        rng(17),
        model(graph::BuildLogisticRegression(3, 2, rng)) {
    server_context.locks = &locks;
    server_context.events = &events;
    server_context.pace = &pace;
    server_context.rng = &rng;

    model_ptr = std::make_shared<const Checkpoint>(model.init_params);
    model_bytes = std::make_shared<const Bytes>(model.init_params.Serialize());
    auto plans = plan::VersionedPlanSet::Generate(
        plan::MakeTrainingPlan(model, "task", {}, {}), 1);
    FL_CHECK(plans.ok());
    encoded_plans = std::make_shared<const PlansByVersion>(
        EncodePlanSet(*plans));
  }

  protocol::RoundConfig SecureRound(std::size_t goal) {
    protocol::RoundConfig config;
    config.goal_count = goal;
    config.overselection = 1.0;
    config.selection_timeout = Minutes(2);
    config.min_selection_fraction = 0.5;
    config.reporting_deadline = Minutes(8);
    config.min_reporting_fraction = 0.5;
    config.devices_per_aggregator = 16;
    config.aggregation = protocol::AggregationMode::kSecure;
    config.secagg.threshold_fraction = 0.6;
    config.secagg.clip = 4.0;
    return config;
  }

  ActorId SpawnMaster(const protocol::RoundConfig& config, ActorId probe) {
    MasterAggregatorActor::Init init;
    init.round = RoundId{1};
    init.task = TaskId{1};
    init.coordinator = probe;
    init.config = config;
    init.global_model = model_ptr;
    init.model_bytes = model_bytes;
    init.encoded_plans = encoded_plans;
    init.context = &server_context;
    return system.Spawn<MasterAggregatorActor>("master", std::move(init));
  }

  std::vector<SecureFakeDevice> MakeDevices(std::size_t n,
                                            std::vector<int> die_at = {}) {
    std::vector<SecureFakeDevice> devices(n);
    for (std::size_t i = 0; i < n; ++i) {
      devices[i].id = DeviceId{i + 1};
      devices[i].system = &system;
      devices[i].queue = &queue;
      devices[i].rng.Seed(1000 + i);
      devices[i].update_value = 0.5f;
      if (i < die_at.size()) devices[i].die_at = die_at[i];
    }
    return devices;
  }

  void Forward(ActorId master, std::vector<SecureFakeDevice>& devices) {
    MsgDevicesForwarded forwarded;
    for (auto& d : devices) forwarded.links.push_back(d.Link());
    system.Send(ActorId{}, master, std::move(forwarded));
  }

  sim::EventQueue queue;
  actor::SimContext context_obj;
  actor::ActorSystem system;
  LockService locks;
  analytics::EventBus events;
  protocol::PaceSteeringPolicy pace;
  Rng rng;
  ServerContext server_context;
  graph::Model model;
  std::shared_ptr<const Checkpoint> model_ptr;
  std::shared_ptr<const Bytes> model_bytes;
  std::shared_ptr<const PlansByVersion> encoded_plans;
};

TEST_F(SecureHarness, SecureRoundCommitsExactQuantizedSum) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  const ActorId master = SpawnMaster(SecureRound(6), probe);
  auto devices = MakeDevices(6);
  Forward(master, devices);
  // The secagg phases are timer-driven; run through all of them.
  queue.RunFor(Minutes(20));

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u) << "abandons: " << p->abandons.size();
  const MsgRoundComplete& done = p->completes[0];
  EXPECT_EQ(done.contributors, 6u);
  EXPECT_FLOAT_EQ(done.weight_sum, 60.0f);
  // Sum of 6 updates of 0.5 per coordinate = 3.0, up to quantization.
  for (const auto& [name, t] : done.delta_sum.tensors()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t.at(i), 3.0f, 0.01) << name;
    }
  }
  for (auto& d : devices) {
    EXPECT_TRUE(d.acked);
    EXPECT_TRUE(d.ack_accepted);
  }
}

// The round decodes its plan and model once and derives the cohort's
// agreed coordinate subset once; every participant gets the same objects,
// and the sparse masked sum still decodes exactly onto that subset.
TEST_F(SecureHarness, CohortSharesRoundArtifactsByPointer) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SecureRound(6);
  config.secagg.keep_fraction = 0.5;
  const ActorId master = SpawnMaster(config, probe);
  auto devices = MakeDevices(6);
  Forward(master, devices);
  queue.RunFor(Minutes(20));

  const std::size_t total = model.init_params.TotalParameters();
  const std::size_t keep = fedavg::KeepCount(total, 0.5);
  ASSERT_LT(keep, total);
  const TaskAssignment& first = *devices[0].assignment;
  ASSERT_NE(first.plan, nullptr);
  ASSERT_NE(first.secagg_agreed_indices, nullptr);
  EXPECT_EQ(first.model, model_ptr);
  EXPECT_EQ(*first.secagg_agreed_indices,
            fedavg::AgreedIndexSet(first.secagg_index_seed, total, keep));
  for (const auto& d : devices) {
    ASSERT_TRUE(d.assignment.has_value());
    EXPECT_EQ(d.assignment->plan, first.plan);
    EXPECT_EQ(d.assignment->model, first.model);
    EXPECT_EQ(d.assignment->secagg_agreed_indices,
              first.secagg_agreed_indices);
    EXPECT_EQ(d.assignment->secagg_vector_length, keep + 1);
  }
  // The shared plan is the decode of the bytes on the wire.
  auto decoded = plan::FLPlan::Deserialize(*first.plan_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->Serialize(), first.plan->Serialize());

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u) << "abandons: " << p->abandons.size();
  EXPECT_EQ(p->completes[0].contributors, 6u);
  // Six updates of 0.5 on each agreed coordinate, rescaled by total/keep;
  // every other coordinate stays exactly zero.
  const std::vector<float> flat = p->completes[0].delta_sum.Flatten();
  ASSERT_EQ(flat.size(), total);
  std::vector<bool> agreed(total, false);
  for (std::uint32_t i : *first.secagg_agreed_indices) agreed[i] = true;
  const float expected = 6 * 0.5f * static_cast<float>(total) /
                         static_cast<float>(keep);
  for (std::size_t i = 0; i < total; ++i) {
    if (agreed[i]) {
      EXPECT_NEAR(flat[i], expected, 0.01) << i;
    } else {
      EXPECT_EQ(flat[i], 0.0f) << i;
    }
  }
}

TEST_F(SecureHarness, DropoutsBeforeCommitAreRecovered) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SecureRound(4);
  config.overselection = 1.5;  // admit all 6 forwarded devices
  config.min_reporting_fraction = 0.5;
  const ActorId master = SpawnMaster(config, probe);
  // Devices 0 and 1 die before sending masked input; 4 commit.
  auto devices = MakeDevices(6, {3, 3, 0, 0, 0, 0});
  Forward(master, devices);
  queue.RunFor(Minutes(20));

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u);
  EXPECT_EQ(p->completes[0].contributors, 4u);
  EXPECT_FLOAT_EQ(p->completes[0].weight_sum, 40.0f);
  for (const auto& [name, t] : p->completes[0].delta_sum.tensors()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t.at(i), 2.0f, 0.01);
    }
  }
}

TEST_F(SecureHarness, TooFewCommittersAbandonsRound) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SecureRound(6);
  config.min_reporting_fraction = 0.9;
  const ActorId master = SpawnMaster(config, probe);
  // Only 2 of 6 survive to commit: below the Shamir threshold (0.6*6=4).
  auto devices = MakeDevices(6, {3, 3, 3, 3, 0, 0});
  Forward(master, devices);
  queue.RunFor(Minutes(30));

  auto* p = system.Get<ProbeActor>(probe);
  EXPECT_TRUE(p->completes.empty());
  EXPECT_EQ(p->abandons.size(), 1u);
}

TEST_F(SecureHarness, DropoutsAfterCommitStillIncluded) {
  const ActorId probe = system.Spawn<ProbeActor>("probe");
  protocol::RoundConfig config = SecureRound(5);
  const ActorId master = SpawnMaster(config, probe);
  // Device 0 commits its masked input but never answers the unmask round.
  auto devices = MakeDevices(5, {4});
  Forward(master, devices);
  queue.RunFor(Minutes(20));

  auto* p = system.Get<ProbeActor>(probe);
  ASSERT_EQ(p->completes.size(), 1u);
  // All 5 committed; the sum includes the silent device's update.
  EXPECT_EQ(p->completes[0].contributors, 5u);
  for (const auto& [name, t] : p->completes[0].delta_sum.tensors()) {
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_NEAR(t.at(i), 2.5f, 0.01);
    }
  }
}

}  // namespace
}  // namespace fl::server
