// Multi-tenant on-device scheduling (Sec. 3, Multi-Tenancy; Sec. 11, Device
// Scheduling): "our multi-tenant on-device scheduler uses a simple worker
// queue for determining which training session to run next (we avoid running
// training sessions on-device in parallel because of their high resource
// consumption)."
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"

namespace fl::device {

// One app's registration of an FL population on this device ("An application
// configures the FL runtime by providing an FL population name and
// registering its example stores").
struct PopulationRegistration {
  std::string population;
  std::string example_store;
  Duration min_checkin_interval = Hours(1);  // JobScheduler cadence floor
};

// A population's handle on one device's scheduler, handed out at
// registration so the check-in path never touches the name. Ids are not
// reused after UnregisterPopulation.
enum class PopulationId : std::uint32_t {};

class MultiTenantScheduler {
 public:
  // Fails with kAlreadyExists when the name is registered.
  Result<PopulationId> RegisterPopulation(PopulationRegistration reg);
  Status UnregisterPopulation(PopulationId population);

  // The worker queue: next population due to run at `now`, respecting the
  // per-population cadence and any server-suggested pace-steering windows.
  // Returns nullopt when nothing is runnable.
  std::optional<PopulationId> NextSession(SimTime now) const;

  // Marks a session started; the population moves to the back of the queue
  // (strict FIFO worker queue — the paper notes this is "blind" to app usage
  // and calls smarter policies future work).
  void OnSessionStarted(PopulationId population, SimTime now);

  // Records the server-suggested reconnect window (pace steering).
  void SetEarliestCheckin(PopulationId population, SimTime earliest);

  // Earliest future time at which any registered population becomes
  // runnable; nullopt when nothing is registered.
  std::optional<SimTime> NextRunnableAt(SimTime now) const;

  bool running() const { return running_; }
  void OnSessionEnded() { running_ = false; }

  // The FIFO holds exactly the registered populations.
  std::size_t registered_count() const { return queue_.size(); }
  Result<const PopulationRegistration*> Find(
      const std::string& population) const;

 private:
  struct Entry {
    PopulationRegistration reg;
    SimTime earliest_next;  // max(last run + cadence, pace-steering window)
    bool registered = true;
  };

  // Indexed by PopulationId; unregistered entries stay as tombstones so
  // ids remain stable. A device registers a handful of populations at most.
  std::vector<Entry> entries_;
  std::vector<PopulationId> queue_;  // FIFO order among registered populations
  bool running_ = false;             // no parallel sessions
};

}  // namespace fl::device
