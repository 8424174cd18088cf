// SHA-256 and HMAC-SHA256 (FIPS 180-4 / RFC 2104), implemented from scratch.
// Used for key derivation and message authentication inside Secure
// Aggregation (Sec. 6) and for the per-check-in attestation MAC (Sec. 3).
// Blocks are compressed by the SHA-NI kernel when the CPU has the SHA
// extensions, else by the scalar reference (sha256_internal.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "src/common/bytes.h"

namespace fl::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();
  void Update(std::span<const std::uint8_t> data);
  void Update(const std::string& s) {
    Update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  Digest Finalize();

  static Digest Hash(std::span<const std::uint8_t> data);
  static Digest Hash(const std::string& s);

 private:
  std::array<std::uint32_t, 8> state_;
  std::uint64_t bit_count_ = 0;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
};

// An HMAC-SHA256 key with its ipad and opad blocks already absorbed: each
// Mac() of a message shorter than 56 bytes then costs two compressions
// instead of four. Build it once per key and reuse it.
class HmacSha256Key {
 public:
  explicit HmacSha256Key(std::span<const std::uint8_t> key);
  Digest Mac(std::span<const std::uint8_t> message) const;

 private:
  Sha256 inner_;  // after absorbing key ^ ipad
  Sha256 outer_;  // after absorbing key ^ opad
};

// One-shot HMAC: HmacSha256Key(key).Mac(message).
Digest HmacSha256(std::span<const std::uint8_t> key,
                  std::span<const std::uint8_t> message);

// HKDF-style expansion: derive a labelled subkey from input key material.
Digest DeriveKey(std::span<const std::uint8_t> key_material,
                 const std::string& label);

std::string DigestToHex(const Digest& d);

}  // namespace fl::crypto
