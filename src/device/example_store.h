// Example stores (Sec. 3): "Applications are responsible for making their
// data available to the FL runtime as an example store by implementing an
// API we provide. ... We recommend that applications limit the total storage
// footprint of their example stores, and automatically remove old data after
// a pre-designated expiration time."
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/data/example.h"
#include "src/plan/plan.h"

namespace fl::device {

// The API applications implement to expose data to the FL runtime.
class ExampleStore {
 public:
  virtual ~ExampleStore() = default;

  virtual const std::string& name() const = 0;

  // Returns examples matching the plan's selection criteria, newest first,
  // at most `selector.max_examples`. Fails with kFailedPrecondition when
  // fewer than `selector.min_examples` match.
  virtual Result<std::vector<data::Example>> Query(
      const plan::ExampleSelector& selector, SimTime now) const = 0;

  virtual std::size_t size() const = 0;
};

// Bounded in-memory store with automatic expiration — the stand-in for the
// paper's example SQLite store.
//
// Layout: every example's features live in one contiguous float buffer; a
// 16-byte entry per example holds its offset into that buffer, its label
// and its timestamp (an example's feature count is the distance to the next
// entry's offset). Eviction and expiry advance a head index over both
// arrays; the dead prefix is compacted away once it outgrows the live part,
// so removal stays amortized O(1) and an idle store costs two allocations
// regardless of how many examples it holds.
class InMemoryExampleStore final : public ExampleStore {
 public:
  struct Options {
    std::size_t max_examples = 10'000;       // storage footprint limit
    Duration expiration = Hours(24 * 14);    // pre-designated expiration
  };

  InMemoryExampleStore(std::string name, Options options)
      : name_(std::move(name)), options_(options) {}

  const std::string& name() const override { return name_; }

  // Appends an example; evicts oldest entries beyond the footprint limit.
  void Add(data::Example example);
  void AddBatch(std::vector<data::Example> examples);

  // Drops entries older than the expiration window.
  void ExpireOld(SimTime now);

  Result<std::vector<data::Example>> Query(
      const plan::ExampleSelector& selector, SimTime now) const override;

  std::size_t size() const override { return entries_.size() - head_; }

  // Narrows a feature-buffer position to the entry's 32-bit offset; fails an
  // FL_CHECK rather than wrapping when the buffer outgrows it.
  static std::uint32_t CheckedOffset(std::size_t position);

 private:
  struct Entry {
    std::uint32_t offset;  // first feature in features_
    float label;
    SimTime timestamp;
  };
  static_assert(sizeof(Entry) == 16);

  std::size_t EndOffset(std::size_t i) const {
    return i + 1 < entries_.size() ? entries_[i + 1].offset : features_.size();
  }
  void Append(const data::Example& example);
  void PopOldest(std::size_t n);  // drops the n oldest live entries

  std::string name_;
  Options options_;
  std::vector<Entry> entries_;   // ordered by insertion (≈ time)
  std::vector<float> features_;  // features of entries_, back to back
  std::size_t head_ = 0;         // entries_[0, head_) are dead
};

// Per-app registry of a device's example stores ("registering its example
// stores", Sec. 3). It owns them; a device registers a handful at most, so
// lookup is a linear scan over one small vector.
class ExampleStoreRegistry {
 public:
  Status Register(std::unique_ptr<ExampleStore> store);
  Result<ExampleStore*> Find(const std::string& name) const;
  std::size_t count() const { return stores_.size(); }

 private:
  ExampleStore* Get(const std::string& name) const;  // nullptr if absent

  std::vector<std::unique_ptr<ExampleStore>> stores_;
};

}  // namespace fl::device
