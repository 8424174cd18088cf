// Shared internals between the scalar SHA-256 compression function
// (sha256.cc, the reference and fallback) and the SHA-NI kernel translation
// unit (sha256_shani.cc, compiled with -msha -msse4.1 and selected at
// runtime by CPU capability).
#pragma once

#include <cstddef>
#include <cstdint>

namespace fl::crypto::internal {

// A block kernel: compresses `blocks` consecutive 64-byte blocks of `data`
// into the 8-word chaining state, exactly as FIPS 180-4 Sec. 6.2.2.
using Sha256BlocksFn = void (*)(std::uint32_t state[8],
                                const std::uint8_t* data, std::size_t blocks);

// The portable word-at-a-time reference kernel.
void Sha256BlocksScalar(std::uint32_t state[8], const std::uint8_t* data,
                        std::size_t blocks);

// The SHA-NI kernel when this build carries it and the CPU reports the SHA
// extensions; nullptr otherwise.
Sha256BlocksFn Sha256ShaNiKernel();

#if defined(FL_SHA256_SHANI)
// Compiled with -msha -msse4.1; call only when the CPU reports SHA.
void Sha256BlocksShaNi(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t blocks);
#endif

}  // namespace fl::crypto::internal
