#include "src/device/example_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>

#include "src/common/rng.h"

namespace fl::device {
namespace {

data::Example MakeExample(float label, SimTime t) {
  data::Example e;
  e.features = {label, label};
  e.label = label;
  e.timestamp = t;
  return e;
}

TEST(ExampleStoreTest, AddAndQuery) {
  InMemoryExampleStore store("s", {});
  for (int i = 0; i < 10; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i * 1000}));
  }
  EXPECT_EQ(store.size(), 10u);
  plan::ExampleSelector sel;
  sel.min_examples = 1;
  sel.max_examples = 100;
  const auto got = store.Query(sel, SimTime{10'000});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 10u);
  // Newest first.
  EXPECT_EQ((*got)[0].label, 9.0f);
}

TEST(ExampleStoreTest, MaxExamplesCapsResult) {
  InMemoryExampleStore store("s", {});
  for (int i = 0; i < 50; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i}));
  }
  plan::ExampleSelector sel;
  sel.max_examples = 7;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 7u);
  EXPECT_EQ((*got)[0].label, 49.0f);  // the newest ones
}

TEST(ExampleStoreTest, MaxAgeFiltersStale) {
  InMemoryExampleStore store("s", {});
  store.Add(MakeExample(1.0f, SimTime{0}));
  store.Add(MakeExample(2.0f, SimTime{Hours(10).millis}));
  plan::ExampleSelector sel;
  sel.max_example_age = Hours(5);
  sel.min_examples = 1;
  const auto got = store.Query(sel, SimTime{Hours(12).millis});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0].label, 2.0f);
}

TEST(ExampleStoreTest, MinExamplesEnforced) {
  InMemoryExampleStore store("s", {});
  store.Add(MakeExample(1.0f, SimTime{0}));
  plan::ExampleSelector sel;
  sel.min_examples = 5;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kFailedPrecondition);
}

TEST(ExampleStoreTest, FootprintLimitEvictsOldest) {
  InMemoryExampleStore::Options opts;
  opts.max_examples = 5;
  InMemoryExampleStore store("s", opts);
  for (int i = 0; i < 10; ++i) {
    store.Add(MakeExample(static_cast<float>(i), SimTime{i}));
  }
  EXPECT_EQ(store.size(), 5u);
  plan::ExampleSelector sel;
  const auto got = store.Query(sel, SimTime{100});
  ASSERT_TRUE(got.ok());
  // Oldest survivors are 5..9.
  for (const auto& e : *got) EXPECT_GE(e.label, 5.0f);
}

TEST(ExampleStoreTest, ExpireOldRemovesByAge) {
  InMemoryExampleStore::Options opts;
  opts.expiration = Hours(24);
  InMemoryExampleStore store("s", opts);
  store.Add(MakeExample(1.0f, SimTime{0}));
  store.Add(MakeExample(2.0f, SimTime{Hours(30).millis}));
  store.ExpireOld(SimTime{Hours(40).millis});
  EXPECT_EQ(store.size(), 1u);
}

TEST(ExampleStoreTest, AddBatch) {
  InMemoryExampleStore store("s", {});
  store.AddBatch({MakeExample(1, SimTime{1}), MakeExample(2, SimTime{2})});
  EXPECT_EQ(store.size(), 2u);
}

// The store's contract written the obvious way: one deque of examples,
// evicted and expired from the front, queried from the back.
class ReferenceStore {
 public:
  explicit ReferenceStore(InMemoryExampleStore::Options options)
      : options_(options) {}

  void Add(data::Example e) {
    examples_.push_back(std::move(e));
    while (examples_.size() > options_.max_examples) examples_.pop_front();
  }
  void ExpireOld(SimTime now) {
    const SimTime cutoff = now - options_.expiration;
    while (!examples_.empty() && examples_.front().timestamp < cutoff) {
      examples_.pop_front();
    }
  }
  // nullopt where the store must fail with kFailedPrecondition.
  std::optional<std::vector<data::Example>> Query(
      const plan::ExampleSelector& selector, SimTime now) const {
    const SimTime cutoff = now - selector.max_example_age;
    std::vector<data::Example> out;
    for (auto it = examples_.rbegin(); it != examples_.rend(); ++it) {
      if (it->timestamp < cutoff) break;
      out.push_back(*it);
      if (out.size() >= selector.max_examples) break;
    }
    if (out.size() < selector.min_examples) return std::nullopt;
    return out;
  }
  std::size_t size() const { return examples_.size(); }

 private:
  InMemoryExampleStore::Options options_;
  std::deque<data::Example> examples_;
};

data::Example RandomExample(Rng& rng, SimTime t) {
  data::Example e;
  e.features.resize(rng.UniformInt(6));  // 0..5 floats, empty included
  for (float& f : e.features) f = static_cast<float>(rng.Uniform(-1, 1));
  e.label = static_cast<float>(rng.UniformInt(10));
  e.timestamp = t;
  return e;
}

void ExpectSameExamples(const std::vector<data::Example>& got,
                        const std::vector<data::Example>& want, int step) {
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].features, want[i].features) << "step " << step;
    EXPECT_EQ(got[i].label, want[i].label) << "step " << step;
    EXPECT_EQ(got[i].timestamp, want[i].timestamp) << "step " << step;
  }
}

// Seeded random Add/AddBatch/ExpireOld/Query sequences against the deque
// reference. A small max_examples keeps eviction (and with it buffer
// compaction) running; timestamps mostly advance but sometimes step back,
// so age cut-offs meet out-of-order data.
TEST(ExampleStoreTest, MatchesDequeReferenceOnRandomOperations) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    InMemoryExampleStore::Options opts;
    opts.max_examples = 1 + rng.UniformInt(12);
    opts.expiration = Millis(static_cast<std::int64_t>(50 + rng.UniformInt(400)));
    InMemoryExampleStore store("s", opts);
    ReferenceStore ref(opts);
    std::int64_t clock = 0;
    const auto next_time = [&] {
      clock += static_cast<std::int64_t>(rng.UniformInt(20));
      return SimTime{clock - static_cast<std::int64_t>(
                                 rng.Bernoulli(0.1) ? rng.UniformInt(60) : 0)};
    };
    for (int step = 0; step < 2000; ++step) {
      switch (rng.UniformInt(4)) {
        case 0: {
          data::Example e = RandomExample(rng, next_time());
          ref.Add(e);
          store.Add(std::move(e));
          break;
        }
        case 1: {
          std::vector<data::Example> batch(rng.UniformInt(20));
          for (auto& e : batch) {
            e = RandomExample(rng, next_time());
            ref.Add(e);
          }
          store.AddBatch(std::move(batch));
          break;
        }
        case 2: {
          const SimTime now{clock};
          ref.ExpireOld(now);
          store.ExpireOld(now);
          break;
        }
        default: {
          plan::ExampleSelector sel;
          sel.max_example_age =
              Millis(static_cast<std::int64_t>(rng.UniformInt(300)));
          sel.min_examples = rng.UniformInt(6);
          sel.max_examples = rng.UniformInt(10);  // 0 included
          const SimTime now{clock};
          const auto want = ref.Query(sel, now);
          const auto got = store.Query(sel, now);
          ASSERT_EQ(got.ok(), want.has_value()) << "step " << step;
          if (got.ok()) {
            ExpectSameExamples(*got, *want, step);
          } else {
            EXPECT_EQ(got.status().code(), ErrorCode::kFailedPrecondition);
          }
        }
      }
      ASSERT_EQ(store.size(), ref.size()) << "seed " << seed << " step "
                                          << step;
    }
  }
}

TEST(ExampleStoreTest, FeatureOffsetsNeverWrap) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(InMemoryExampleStore::CheckedOffset(kMax), kMax);
  // FL_CHECK failures throw std::logic_error.
  EXPECT_THROW(InMemoryExampleStore::CheckedOffset(kMax + 1),
               std::logic_error);
}

TEST(RegistryTest, RegisterAndFind) {
  ExampleStoreRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<InMemoryExampleStore>(
                      "keyboard", InMemoryExampleStore::Options{}))
                  .ok());
  EXPECT_EQ(registry.count(), 1u);
  const auto found = registry.Find("keyboard");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name(), "keyboard");
  EXPECT_EQ(registry.Find("nope").status().code(), ErrorCode::kNotFound);
}

TEST(RegistryTest, DuplicateRegistrationRejected) {
  ExampleStoreRegistry registry;
  ASSERT_TRUE(registry
                  .Register(std::make_unique<InMemoryExampleStore>(
                      "s", InMemoryExampleStore::Options{}))
                  .ok());
  EXPECT_EQ(registry
                .Register(std::make_unique<InMemoryExampleStore>(
                    "s", InMemoryExampleStore::Options{}))
                .code(),
            ErrorCode::kAlreadyExists);
  EXPECT_EQ(registry.count(), 1u);
}

}  // namespace
}  // namespace fl::device
