#include "src/device/attestation.h"

#include <gtest/gtest.h>

namespace fl::device {
namespace {

TEST(AttestationTest, GenuineTokenVerifies) {
  AttestationAuthority authority(12345);
  const auto token = authority.Issue(DeviceId{7}, 999);
  EXPECT_TRUE(authority.Verify(token));
}

TEST(AttestationTest, GoldenMac) {
  // HMAC-SHA256(key = LE64(secret), msg = LE64(device) || LE64(nonce)),
  // pinned so a kernel or key-schedule change cannot silently move it.
  AttestationAuthority authority(0x5EC2E7);
  const auto token = authority.Issue(DeviceId{42}, 7);
  EXPECT_EQ(crypto::DigestToHex(token.mac),
            "713ae55820c3a3b05b56797207d2adb2851830e5ee30a91456bd988919cb5933");
  EXPECT_EQ(authority.Forge(DeviceId{42}, 7, 0x5EC2E7).mac, token.mac);
}

TEST(AttestationTest, ForgedTokenRejected) {
  AttestationAuthority authority(12345);
  const auto forged = authority.Forge(DeviceId{7}, 999, 54321);
  EXPECT_FALSE(authority.Verify(forged));
}

TEST(AttestationTest, TokenBoundToDevice) {
  AttestationAuthority authority(1);
  auto token = authority.Issue(DeviceId{7}, 999);
  token.device = DeviceId{8};  // replay under a different identity
  EXPECT_FALSE(authority.Verify(token));
}

TEST(AttestationTest, TokenBoundToNonce) {
  AttestationAuthority authority(1);
  auto token = authority.Issue(DeviceId{7}, 999);
  token.nonce = 1000;
  EXPECT_FALSE(authority.Verify(token));
}

TEST(AttestationTest, DifferentAuthoritiesDisagree) {
  AttestationAuthority a(1), b(2);
  const auto token = a.Issue(DeviceId{7}, 1);
  EXPECT_FALSE(b.Verify(token));
}

TEST(AttestationTest, LuckyForgeryRequiresExactSecret) {
  AttestationAuthority authority(0xABCDEF);
  // Forging with the true secret works (that is the defended boundary:
  // compromise of the platform key, out of scope per Sec. 3).
  const auto forged_right = authority.Forge(DeviceId{3}, 5, 0xABCDEF);
  EXPECT_TRUE(authority.Verify(forged_right));
  const auto forged_close = authority.Forge(DeviceId{3}, 5, 0xABCDEE);
  EXPECT_FALSE(authority.Verify(forged_close));
}

}  // namespace
}  // namespace fl::device
