// FL task descriptors and the shared server context handed to actors.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/emit.h"
#include "src/common/id.h"
#include "src/common/rng.h"
#include "src/plan/versioning.h"
#include "src/protocol/pace_steering.h"
#include "src/protocol/round_config.h"
#include "src/server/lock_service.h"
#include "src/server/model_store.h"

namespace fl::server {

// "An FL task is a specific computation for an FL population, such as
// training to be performed with given hyperparameters, or evaluation of
// trained models on local device data" (Sec. 2.1).
struct FLTaskDescriptor {
  TaskId id;
  std::string name;
  plan::VersionedPlanSet plans;
  protocol::RoundConfig round_config;
  // Minimum time between consecutive rounds of this task.
  Duration round_cadence = Seconds(10);
};

// One runtime version's plan as the server ships it: the serialized bytes
// devices download, and those bytes decoded once so the cohort shares one
// FLPlan instead of each device decoding its own copy.
struct EncodedPlan {
  std::shared_ptr<const Bytes> bytes;
  std::shared_ptr<const plan::FLPlan> plan;
};

// Encoded plans per supported runtime version, shared across the round's
// actors and assignments.
using PlansByVersion = std::map<std::uint32_t, EncodedPlan>;

PlansByVersion EncodePlanSet(const plan::VersionedPlanSet& plans);

// Shared, actor-external services. Owned by the embedding application (the
// fleet simulator / tests); must outlive the actor system.
struct ServerContext {
  LockService* locks = nullptr;
  ModelStore* model_store = nullptr;
  // Every server fact goes out through events->Emit (Sec. 5 analytics).
  const analytics::EventBus* events = nullptr;
  const protocol::PaceSteeringPolicy* pace = nullptr;
  Rng* rng = nullptr;  // server-side randomness (single-threaded sim use)
  std::size_t estimated_population = 0;  // updated by the embedder
};

}  // namespace fl::server
