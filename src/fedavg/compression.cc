#include "src/fedavg/compression.h"

#include <algorithm>
#include <cmath>

namespace fl::fedavg {

namespace wire {

void PackBits(BytesWriter& w, std::span<const std::uint32_t> levels,
              std::uint8_t bits) {
  std::uint64_t acc = 0;
  int filled = 0;
  for (std::uint32_t level : levels) {
    acc |= static_cast<std::uint64_t>(level) << filled;
    filled += bits;
    while (filled >= 8) {
      w.WriteU8(static_cast<std::uint8_t>(acc));
      acc >>= 8;
      filled -= 8;
    }
  }
  if (filled > 0) w.WriteU8(static_cast<std::uint8_t>(acc));
}

Result<std::vector<std::uint32_t>> UnpackBits(BytesReader& r,
                                              std::size_t count,
                                              std::uint8_t bits) {
  if (bits < 1 || bits > 32) return DataLossError("bad bit width");
  // count * bits must fit the bytes left; checked before allocating.
  if (count > r.remaining() * 8 / bits) {
    return DataLossError("packed level count exceeds payload");
  }
  std::vector<std::uint32_t> levels(count);
  std::uint64_t acc = 0;
  int filled = 0;
  const std::uint32_t mask = bits >= 32 ? 0xFFFFFFFFu : ((1u << bits) - 1);
  for (std::size_t i = 0; i < count; ++i) {
    while (filled < bits) {
      FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
      acc |= static_cast<std::uint64_t>(b) << filled;
      filled += 8;
    }
    levels[i] = static_cast<std::uint32_t>(acc) & mask;
    acc >>= bits;
    filled -= bits;
  }
  return levels;
}

}  // namespace wire

namespace {
constexpr char kMagic[4] = {'F', 'L', 'C', 'U'};
}  // namespace

CompressedUpdate Compress(std::span<const float> update,
                          const CompressionConfig& config,
                          std::uint64_t seed) {
  FL_CHECK(config.quantization_bits >= 1 &&
           (config.quantization_bits <= 16 || config.quantization_bits == 32));
  FL_CHECK(config.keep_fraction > 0.0 && config.keep_fraction <= 1.0);
  Rng rng(seed);

  // Stage 1: coordinate subsampling with unbiased rescaling.
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  const bool subsample = config.keep_fraction < 1.0;
  if (subsample) {
    for (std::size_t i = 0; i < update.size(); ++i) {
      if (rng.Bernoulli(config.keep_fraction)) {
        indices.push_back(static_cast<std::uint32_t>(i));
        values.push_back(update[i] /
                         static_cast<float>(config.keep_fraction));
      }
    }
  } else {
    values.assign(update.begin(), update.end());
  }

  BytesWriter w;
  w.WriteRaw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.WriteVarint(update.size());
  w.WriteU8(subsample ? 1 : 0);
  w.WriteU8(config.quantization_bits);
  w.WriteVarint(values.size());
  if (subsample) {
    // Delta-encoded indices.
    std::uint32_t prev = 0;
    for (std::uint32_t idx : indices) {
      w.WriteVarint(idx - prev);
      prev = idx;
    }
  }

  if (config.quantization_bits == 32 || values.empty()) {
    for (float v : values) w.WriteF32(v);
  } else {
    float lo = values[0], hi = values[0];
    for (float v : values) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double range = std::max(1e-12, static_cast<double>(hi) - lo);
    const auto max_level =
        static_cast<std::uint32_t>((1u << config.quantization_bits) - 1);
    w.WriteF32(lo);
    w.WriteF32(hi);
    std::vector<std::uint32_t> levels(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      // Stochastic rounding keeps the estimate unbiased.
      const double x = (values[i] - lo) / range * max_level;
      const double floor_x = std::floor(x);
      const double frac = x - floor_x;
      std::uint32_t level = static_cast<std::uint32_t>(floor_x) +
                            (rng.NextDouble() < frac ? 1u : 0u);
      levels[i] = std::min(level, max_level);
    }
    wire::PackBits(w, levels, config.quantization_bits);
  }

  CompressedUpdate out;
  out.payload = std::move(w).Take();
  out.original_floats = update.size();
  return out;
}

Result<std::vector<float>> Decompress(const CompressedUpdate& update) {
  BytesReader r(update.payload);
  for (char expected : kMagic) {
    FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
    if (static_cast<char>(b) != expected) {
      return DataLossError("bad compressed update magic");
    }
  }
  FL_ASSIGN_OR_RETURN(std::uint64_t total, r.ReadVarint());
  FL_ASSIGN_OR_RETURN(std::uint8_t subsampled, r.ReadU8());
  FL_ASSIGN_OR_RETURN(std::uint8_t bits, r.ReadU8());
  FL_ASSIGN_OR_RETURN(std::uint64_t kept, r.ReadVarint());
  if (kept > total) return DataLossError("kept count exceeds total");
  // Every count below is checked before it sizes an allocation: the output
  // against the declared model size, the rest against the bytes left.
  if (total != update.original_floats) {
    return DataLossError("update length differs from the model size");
  }
  if (subsampled == 0 && kept != total) {
    return DataLossError("dense update size mismatch");
  }

  std::vector<std::uint32_t> indices;
  if (subsampled != 0) {
    if (kept > r.remaining()) {  // one varint byte per index at least
      return DataLossError("index count exceeds payload");
    }
    indices.resize(kept);
    std::uint32_t prev = 0;
    for (auto& idx : indices) {
      FL_ASSIGN_OR_RETURN(std::uint64_t delta, r.ReadVarint());
      prev += static_cast<std::uint32_t>(delta);
      if (prev >= total) return DataLossError("index out of range");
      idx = prev;
    }
  }

  std::vector<float> values;
  if (bits == 32 || kept == 0) {
    if (kept > r.remaining() / sizeof(float)) {
      return DataLossError("value count exceeds payload");
    }
    values.resize(kept);
    for (auto& v : values) {
      FL_ASSIGN_OR_RETURN(v, r.ReadF32());
    }
  } else {
    if (bits < 1 || bits > 16) return DataLossError("bad quantization bits");
    FL_ASSIGN_OR_RETURN(float lo, r.ReadF32());
    FL_ASSIGN_OR_RETURN(float hi, r.ReadF32());
    const double range = std::max(1e-12, static_cast<double>(hi) - lo);
    const auto max_level = static_cast<std::uint32_t>((1u << bits) - 1);
    FL_ASSIGN_OR_RETURN(std::vector<std::uint32_t> levels,
                        wire::UnpackBits(r, kept, bits));
    values.resize(kept);
    for (std::size_t i = 0; i < kept; ++i) {
      values[i] = static_cast<float>(
          lo + range * levels[i] / static_cast<double>(max_level));
    }
  }

  if (subsampled == 0) return values;
  std::vector<float> out(total, 0.0f);
  for (std::size_t i = 0; i < kept; ++i) out[indices[i]] = values[i];
  return out;
}

}  // namespace fl::fedavg
