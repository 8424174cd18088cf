#include "src/fedavg/compression.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"

namespace fl::fedavg {
namespace {

std::vector<float> RandomUpdate(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 0.5));
  return v;
}

TEST(CompressionTest, LosslessAt32Bits) {
  Rng rng(1);
  const auto update = RandomUpdate(1000, rng);
  CompressionConfig cfg;
  cfg.quantization_bits = 32;
  cfg.keep_fraction = 1.0;
  const auto compressed = Compress(update, cfg, 7);
  const auto back = Decompress(compressed);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, update);
}

TEST(CompressionTest, EightBitQuantizationBoundsError) {
  Rng rng(2);
  const auto update = RandomUpdate(5000, rng);
  CompressionConfig cfg;
  cfg.quantization_bits = 8;
  const auto compressed = Compress(update, cfg, 9);
  const auto back = Decompress(compressed);
  ASSERT_TRUE(back.ok());
  float lo = update[0], hi = update[0];
  for (float v : update) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double step = (hi - lo) / 255.0;
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_NEAR((*back)[i], update[i], step * 1.01);
  }
}

TEST(CompressionTest, RatioReflectsBitWidth) {
  Rng rng(3);
  const auto update = RandomUpdate(10000, rng);
  CompressionConfig cfg8;
  cfg8.quantization_bits = 8;
  CompressionConfig cfg2;
  cfg2.quantization_bits = 2;
  const double r8 = Compress(update, cfg8, 1).CompressionRatio();
  const double r2 = Compress(update, cfg2, 1).CompressionRatio();
  EXPECT_NEAR(r8, 4.0, 0.2);
  EXPECT_NEAR(r2, 16.0, 1.0);
}

TEST(CompressionTest, StochasticRoundingIsUnbiased) {
  // Mean reconstruction error over many seeds should vanish.
  Rng rng(4);
  const std::vector<float> update{0.1f, 0.37f, -0.42f, 0.9f, -0.05f, 0.0f,
                                  1.0f, -1.0f};
  CompressionConfig cfg;
  cfg.quantization_bits = 4;
  std::vector<double> bias(update.size(), 0.0);
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    const auto back = Decompress(Compress(update, cfg, rng.Next()));
    ASSERT_TRUE(back.ok());
    for (std::size_t i = 0; i < update.size(); ++i) {
      bias[i] += ((*back)[i] - update[i]) / trials;
    }
  }
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_NEAR(bias[i], 0.0, 0.01) << i;
  }
}

TEST(CompressionTest, SubsamplingIsUnbiased) {
  Rng rng(5);
  const auto update = RandomUpdate(100, rng);
  CompressionConfig cfg;
  cfg.quantization_bits = 32;
  cfg.keep_fraction = 0.25;
  std::vector<double> mean(update.size(), 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    const auto back = Decompress(Compress(update, cfg, rng.Next()));
    ASSERT_TRUE(back.ok());
    for (std::size_t i = 0; i < update.size(); ++i) {
      mean[i] += (*back)[i] / trials;
    }
  }
  for (std::size_t i = 0; i < update.size(); ++i) {
    EXPECT_NEAR(mean[i], update[i], 0.15) << i;
  }
}

TEST(CompressionTest, SubsamplingShrinksPayload) {
  Rng rng(6);
  const auto update = RandomUpdate(10000, rng);
  CompressionConfig dense;
  dense.quantization_bits = 8;
  CompressionConfig sparse;
  sparse.quantization_bits = 8;
  sparse.keep_fraction = 0.1;
  EXPECT_LT(Compress(update, sparse, 1).payload.size(),
            Compress(update, dense, 1).payload.size() / 3);
}

TEST(CompressionTest, EmptyUpdateRoundTrips) {
  CompressionConfig cfg;
  const auto c = Compress({}, cfg, 1);
  const auto back = Decompress(c);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(CompressionTest, ConstantVectorSurvives) {
  const std::vector<float> update(100, 3.25f);
  CompressionConfig cfg;
  cfg.quantization_bits = 4;
  const auto back = Decompress(Compress(update, cfg, 2));
  ASSERT_TRUE(back.ok());
  for (float v : *back) EXPECT_NEAR(v, 3.25f, 1e-5);
}

TEST(CompressionTest, CorruptPayloadRejected) {
  Rng rng(7);
  const auto update = RandomUpdate(100, rng);
  auto c = Compress(update, {}, 3);
  c.payload[0] = 'X';
  EXPECT_FALSE(Decompress(c).ok());
}

TEST(CompressionTest, TruncatedPayloadRejected) {
  Rng rng(8);
  const auto update = RandomUpdate(100, rng);
  auto c = Compress(update, {}, 3);
  c.payload.resize(c.payload.size() / 2);
  EXPECT_FALSE(Decompress(c).ok());
}

// A hand-built FLCU payload whose header claims `total` floats of which
// `kept` travel, followed by 16 filler bytes.
CompressedUpdate LyingPayload(std::uint64_t total, bool subsampled,
                              std::uint8_t bits, std::uint64_t kept,
                              std::size_t declared_floats) {
  BytesWriter w;
  for (char c : {'F', 'L', 'C', 'U'}) w.WriteU8(static_cast<std::uint8_t>(c));
  w.WriteVarint(total);
  w.WriteU8(subsampled ? 1 : 0);
  w.WriteU8(bits);
  w.WriteVarint(kept);
  for (int i = 0; i < 16; ++i) w.WriteU8(1);
  CompressedUpdate c;
  c.payload = std::move(w).Take();
  c.original_floats = declared_floats;
  return c;
}

// Length lies must be DataLoss before any count sizes an allocation.
TEST(CompressionTest, LengthLiesRejectedBeforeAllocating) {
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const struct {
    const char* what;
    CompressedUpdate update;
  } cases[] = {
      {"sparse, total beyond the model",
       LyingPayload(huge, true, 32, 1, 100)},
      {"sparse, kept beyond the payload",
       LyingPayload(huge, true, 32, huge, huge)},
      {"dense float, kept beyond the payload",
       LyingPayload(huge, false, 32, huge, huge)},
      {"dense quantized, kept beyond the payload",
       LyingPayload(huge, false, 8, huge, huge)},
      {"dense, kept below total", LyingPayload(100, false, 32, 3, 100)},
  };
  for (const auto& c : cases) {
    const auto back = Decompress(c.update);
    ASSERT_FALSE(back.ok()) << c.what;
    EXPECT_EQ(back.status().code(), ErrorCode::kDataLoss) << c.what;
  }
}

TEST(CompressionTest, UnpackBitsBoundsCountByPayload) {
  const Bytes two_bytes = {0xFF, 0xFF};
  BytesReader ok_reader(two_bytes);
  EXPECT_TRUE(wire::UnpackBits(ok_reader, 4, 4).ok());
  BytesReader short_reader(two_bytes);
  const auto lie = wire::UnpackBits(short_reader, std::size_t{1} << 40, 4);
  ASSERT_FALSE(lie.ok());
  EXPECT_EQ(lie.status().code(), ErrorCode::kDataLoss);
  BytesReader zero_width(two_bytes);
  EXPECT_FALSE(wire::UnpackBits(zero_width, 4, 0).ok());
}

class CompressionSweep
    : public ::testing::TestWithParam<std::tuple<std::uint8_t, double>> {};

TEST_P(CompressionSweep, RoundTripErrorBounded) {
  const auto [bits, keep] = GetParam();
  Rng rng(static_cast<std::uint64_t>(bits) * 100 +
          static_cast<std::uint64_t>(keep * 10));
  const auto update = RandomUpdate(2000, rng);
  CompressionConfig cfg;
  cfg.quantization_bits = bits;
  cfg.keep_fraction = keep;
  const auto c = Compress(update, cfg, 11);
  const auto back = Decompress(c);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), update.size());
  EXPECT_GT(c.CompressionRatio(), 0.9);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CompressionSweep,
    ::testing::Values(std::make_tuple(std::uint8_t{1}, 1.0),
                      std::make_tuple(std::uint8_t{4}, 1.0),
                      std::make_tuple(std::uint8_t{8}, 0.5),
                      std::make_tuple(std::uint8_t{16}, 0.25),
                      std::make_tuple(std::uint8_t{32}, 0.1)));

}  // namespace
}  // namespace fl::fedavg
