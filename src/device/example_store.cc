#include "src/device/example_store.h"

#include <algorithm>
#include <limits>

namespace fl::device {
namespace {

// Reserves room for `needed` elements: exactly when the vector is empty (a
// freshly provisioned store holds no slack), geometrically otherwise so
// repeated small batches stay amortized O(1).
template <typename T>
void ReserveFor(std::vector<T>& v, std::size_t needed) {
  if (needed <= v.capacity()) return;
  v.reserve(v.empty() ? needed : std::max(needed, 2 * v.capacity()));
}

}  // namespace

std::uint32_t InMemoryExampleStore::CheckedOffset(std::size_t position) {
  FL_CHECK_MSG(position <= std::numeric_limits<std::uint32_t>::max(),
               "example store feature buffer exceeds 2^32 floats");
  return static_cast<std::uint32_t>(position);
}

void InMemoryExampleStore::Append(const data::Example& example) {
  // Checking the end also covers the start, and the next entry's offset.
  CheckedOffset(features_.size() + example.features.size());
  entries_.push_back(Entry{static_cast<std::uint32_t>(features_.size()),
                           example.label, example.timestamp});
  features_.insert(features_.end(), example.features.begin(),
                   example.features.end());
}

void InMemoryExampleStore::PopOldest(std::size_t n) {
  head_ += n;
  const std::size_t live = size();
  if (live == 0) {
    entries_.clear();
    features_.clear();
    head_ = 0;
  } else if (head_ >= live) {
    // The dead prefix outgrew the live part: slide both arrays down.
    const std::uint32_t base = entries_[head_].offset;
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    features_.erase(features_.begin(), features_.begin() + base);
    for (Entry& e : entries_) e.offset -= base;
    head_ = 0;
  }
}

void InMemoryExampleStore::Add(data::Example example) {
  Append(example);
  // Evict oldest beyond the footprint limit.
  if (size() > options_.max_examples) PopOldest(size() - options_.max_examples);
}

void InMemoryExampleStore::AddBatch(std::vector<data::Example> examples) {
  std::size_t floats = 0;
  for (const data::Example& e : examples) floats += e.features.size();
  ReserveFor(entries_, entries_.size() + examples.size());
  ReserveFor(features_, features_.size() + floats);
  // Appending everything, then evicting, leaves the same newest
  // max_examples as adding one at a time.
  for (const data::Example& e : examples) Append(e);
  if (size() > options_.max_examples) PopOldest(size() - options_.max_examples);
}

void InMemoryExampleStore::ExpireOld(SimTime now) {
  const SimTime cutoff = now - options_.expiration;
  std::size_t n = 0;
  while (head_ + n < entries_.size() &&
         entries_[head_ + n].timestamp < cutoff) {
    ++n;
  }
  if (n > 0) PopOldest(n);
}

Result<std::vector<data::Example>> InMemoryExampleStore::Query(
    const plan::ExampleSelector& selector, SimTime now) const {
  const SimTime cutoff = now - selector.max_example_age;
  std::vector<data::Example> out;
  // Newest first; stop once the per-participation cap is reached.
  for (std::size_t i = entries_.size(); i-- > head_;) {
    const Entry& e = entries_[i];
    if (e.timestamp < cutoff) break;  // older entries only get older
    out.push_back(data::Example{
        std::vector<float>(features_.begin() + e.offset,
                           features_.begin() +
                               static_cast<std::ptrdiff_t>(EndOffset(i))),
        e.label, e.timestamp});
    if (out.size() >= selector.max_examples) break;
  }
  if (out.size() < selector.min_examples) {
    return FailedPreconditionError(
        "store '" + name_ + "' has " + std::to_string(out.size()) +
        " fresh examples; plan requires " +
        std::to_string(selector.min_examples));
  }
  return out;
}

Status ExampleStoreRegistry::Register(std::unique_ptr<ExampleStore> store) {
  FL_CHECK(store != nullptr);
  if (Get(store->name()) != nullptr) {
    return AlreadyExistsError("example store '" + store->name() +
                              "' already registered");
  }
  stores_.push_back(std::move(store));
  return Status::Ok();
}

ExampleStore* ExampleStoreRegistry::Get(const std::string& name) const {
  for (const auto& store : stores_) {
    if (store->name() == name) return store.get();
  }
  return nullptr;
}

Result<ExampleStore*> ExampleStoreRegistry::Find(
    const std::string& name) const {
  ExampleStore* store = Get(name);
  if (store == nullptr) {
    return NotFoundError("no example store named '" + name + "'");
  }
  return store;
}

}  // namespace fl::device
