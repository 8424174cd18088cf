#include "src/device/scheduler.h"

#include <algorithm>

namespace fl::device {

Result<PopulationId> MultiTenantScheduler::RegisterPopulation(
    PopulationRegistration reg) {
  if (Find(reg.population).ok()) {
    return AlreadyExistsError("population '" + reg.population +
                              "' already registered");
  }
  const auto id = static_cast<PopulationId>(entries_.size());
  entries_.push_back(Entry{std::move(reg), SimTime{0}});
  queue_.push_back(id);
  return id;
}

Status MultiTenantScheduler::UnregisterPopulation(PopulationId population) {
  const auto it = std::find(queue_.begin(), queue_.end(), population);
  if (it == queue_.end()) {
    return NotFoundError("population id " +
                         std::to_string(static_cast<std::uint32_t>(population)) +
                         " not registered");
  }
  queue_.erase(it);
  entries_[static_cast<std::size_t>(population)].registered = false;
  return Status::Ok();
}

std::optional<PopulationId> MultiTenantScheduler::NextSession(
    SimTime now) const {
  if (running_) return std::nullopt;  // one training session at a time
  for (const PopulationId id : queue_) {
    if (entries_[static_cast<std::size_t>(id)].earliest_next <= now) return id;
  }
  return std::nullopt;
}

void MultiTenantScheduler::OnSessionStarted(PopulationId population,
                                            SimTime now) {
  const auto it = std::find(queue_.begin(), queue_.end(), population);
  if (it == queue_.end()) return;
  running_ = true;
  Entry& entry = entries_[static_cast<std::size_t>(population)];
  entry.earliest_next = now + entry.reg.min_checkin_interval;
  // Rotate to the back of the worker queue.
  std::rotate(it, it + 1, queue_.end());
}

void MultiTenantScheduler::SetEarliestCheckin(PopulationId population,
                                              SimTime earliest) {
  const auto index = static_cast<std::size_t>(population);
  if (index >= entries_.size() || !entries_[index].registered) return;
  entries_[index].earliest_next =
      std::max(entries_[index].earliest_next, earliest);
}

std::optional<SimTime> MultiTenantScheduler::NextRunnableAt(
    SimTime now) const {
  std::optional<SimTime> best;
  for (const PopulationId id : queue_) {
    const SimTime t =
        std::max(entries_[static_cast<std::size_t>(id)].earliest_next, now);
    if (!best.has_value() || t < *best) best = t;
  }
  return best;
}

Result<const PopulationRegistration*> MultiTenantScheduler::Find(
    const std::string& population) const {
  for (const Entry& entry : entries_) {
    if (entry.registered && entry.reg.population == population) {
      return &entry.reg;
    }
  }
  return NotFoundError("population '" + population + "' not registered");
}

}  // namespace fl::device
