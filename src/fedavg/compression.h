// Update compression (Sec. 11, Bandwidth): "To reduce the bandwidth
// necessary, we implement compression techniques such as those of
// Konecny et al. (2016b) and Caldas et al. (2018)."
//
// Implemented scheme, following Konecny et al.'s structured/sketched
// updates: (optional) random subsampling to a fraction of coordinates with
// unbiased rescaling, then uniform b-bit stochastic quantization between the
// per-update min and max. Both stages are unbiased in expectation.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace fl::fedavg {

struct CompressionConfig {
  std::uint8_t quantization_bits = 8;  // 1..16; 32 means "no quantization"
  double keep_fraction = 1.0;          // coordinate subsampling (1.0 = all)
};

// Transport framing charged to every encoded update on the wire (report
// headers: ids, lengths, checksum). Shared by CompressedUpdate and the
// codec layer (src/fedavg/codec.h) so byte accounting and compression
// ratios are comparable across schemes.
inline constexpr std::size_t kUpdateWireOverheadBytes = 32;

struct CompressedUpdate {
  Bytes payload;  // complete encoder output: header + indices + values
  std::size_t original_floats = 0;

  // Total on-wire bytes: payload (header and index overhead included) plus
  // the shared transport framing. Every codec charges the same framing, so
  // ratios compare like for like.
  std::size_t WireBytes() const {
    return payload.size() + kUpdateWireOverheadBytes;
  }
  double CompressionRatio() const {
    const double raw =
        static_cast<double>(original_floats) * sizeof(float);
    return payload.empty() ? 1.0 : raw / static_cast<double>(WireBytes());
  }
};

namespace wire {
// Little-endian bit packing shared by the compression and codec layers:
// writes `bits` bits per level, reads them back. UnpackBits rejects a
// `count` the reader's remaining bytes cannot hold before allocating.
void PackBits(BytesWriter& w, std::span<const std::uint32_t> levels,
              std::uint8_t bits);
Result<std::vector<std::uint32_t>> UnpackBits(BytesReader& r,
                                              std::size_t count,
                                              std::uint8_t bits);
}  // namespace wire

// Compresses a flat update vector. `seed` drives both subsampling and
// stochastic rounding; decompression does not need it (indices and scale
// travel in the payload).
CompressedUpdate Compress(std::span<const float> update,
                          const CompressionConfig& config, std::uint64_t seed);

// Reconstructs an unbiased estimate of the original vector. The payload's
// declared length must equal `update.original_floats`, the model size the
// caller expects; every other count is bounded by the payload's bytes, so a
// lying header is DataLoss rather than an allocation.
Result<std::vector<float>> Decompress(const CompressedUpdate& update);

}  // namespace fl::fedavg
