#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha256_internal.h"

namespace fl::crypto {
namespace {

std::span<const std::uint8_t> AsBytes(const std::string& s) {
  return std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Sha256Test, Fips180Vectors) {
  // FIPS 180-4 test vectors.
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      DigestToHex(Sha256::Hash(std::string(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string data = "federated learning at scale: system design";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha256 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(data)) << "split=" << split;
  }
}

TEST(Sha256Test, BlockBoundaryLengths) {
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 128u}) {
    const std::string a(len, 'x');
    // Self-consistency across buffering paths.
    Sha256 one;
    one.Update(a);
    Sha256 two;
    for (char c : a) two.Update(std::string(1, c));
    EXPECT_EQ(one.Finalize(), two.Finalize()) << "len=" << len;
  }
}

TEST(HmacSha256Test, Rfc4231Vector1) {
  const std::vector<std::uint8_t> key(20, 0x0b);
  const std::string msg = "Hi There";
  const Digest mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Vector2) {
  const std::string key = "Jefe";
  const std::string msg = "what do ya want for nothing?";
  const Digest mac = HmacSha256(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(key.data()), key.size()),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst) {
  const std::vector<std::uint8_t> key(131, 0xaa);
  const std::string msg = "Test Using Larger Than Block-Size Key - Hash Key First";
  const Digest mac = HmacSha256(
      key, std::span<const std::uint8_t>(
               reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  EXPECT_EQ(DigestToHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 cases 3, 4, 6 and 7, each through the one-shot HmacSha256 and
// through one precomputed HmacSha256Key reused across messages (cases 6 and
// 7 share their key, so one key object serves both).
TEST(HmacSha256Test, Rfc4231OneShotAndPrecomputedKeyAgree) {
  struct Case {
    std::vector<std::uint8_t> key;
    std::string msg;
    const char* mac;
  };
  std::vector<std::uint8_t> key4;
  for (std::uint8_t b = 1; b <= 25; ++b) key4.push_back(b);
  const std::vector<std::uint8_t> key67(131, 0xaa);
  const std::vector<Case> cases = {
      {std::vector<std::uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {key4, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {key67, "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {key67,
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(DigestToHex(HmacSha256(c.key, AsBytes(c.msg))), c.mac);
    // A reused key object: MACs of other messages in between leave it intact.
    const HmacSha256Key key(c.key);
    EXPECT_EQ(DigestToHex(key.Mac(AsBytes(c.msg))), c.mac);
    (void)key.Mac(AsBytes("some other message"));
    EXPECT_EQ(DigestToHex(key.Mac(AsBytes(c.msg))), c.mac);
  }
  const HmacSha256Key shared(key67);
  EXPECT_EQ(DigestToHex(shared.Mac(AsBytes(cases[2].msg))), cases[2].mac);
  EXPECT_EQ(DigestToHex(shared.Mac(AsBytes(cases[3].msg))), cases[3].mac);
  EXPECT_EQ(DigestToHex(shared.Mac(AsBytes(cases[2].msg))), cases[2].mac);
}

// The SHA-NI kernel against the scalar reference on seeded random chaining
// states and blocks, one block and several blocks per call.
TEST(Sha256KernelTest, ShaNiMatchesScalarOnRandomBlocks) {
  const internal::Sha256BlocksFn shani = internal::Sha256ShaNiKernel();
  if (shani == nullptr) {
    GTEST_SKIP() << "CPU or build without the SHA extensions";
  }
  Rng rng(20190401);
  std::uint8_t data[4 * 64];
  for (int trial = 0; trial < 10000; ++trial) {
    std::uint32_t scalar[8], vector[8];
    for (auto& w : scalar) w = static_cast<std::uint32_t>(rng.Next());
    std::memcpy(vector, scalar, sizeof(scalar));
    for (std::size_t i = 0; i < sizeof(data); i += 8) {
      const std::uint64_t v = rng.Next();
      std::memcpy(data + i, &v, 8);
    }
    const std::size_t blocks = trial < 9000 ? 1 : 1 + trial % 4;
    internal::Sha256BlocksScalar(scalar, data, blocks);
    shani(vector, data, blocks);
    ASSERT_EQ(std::memcmp(scalar, vector, sizeof(scalar)), 0)
        << "trial=" << trial << " blocks=" << blocks;
  }
}

TEST(DeriveKeyTest, DistinctLabelsYieldDistinctKeys) {
  const std::vector<std::uint8_t> material{1, 2, 3, 4};
  EXPECT_NE(DeriveKey(material, "label-a"), DeriveKey(material, "label-b"));
  EXPECT_EQ(DeriveKey(material, "label-a"), DeriveKey(material, "label-a"));
}

}  // namespace
}  // namespace fl::crypto
