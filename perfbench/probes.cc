// Layer probes: a layer's unit cost timed on its own, with inputs shaped
// like the workload that exercises it. The fleet cannot attribute time to
// attestation or to one SecAgg phase without spans inside the library, so
// the ledger multiplies these unit costs by the fleet's own counts and
// labels the product an estimate.
#include <algorithm>
#include <cmath>
#include <fstream>

#include "perfbench/bench.h"
#include "src/common/crc32.h"
#include "src/common/status.h"
#include "src/common/rng.h"
#include "src/device/attestation.h"
#include "src/secagg/client.h"
#include "src/secagg/server.h"

namespace fl::perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::size_t CurrentRssBytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::size_t kb = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %zu kB", &kb) == 1) {
      return kb * 1024;
    }
    break;
  }
  return 0;
}

std::uint32_t ModelCrc(const Checkpoint& model) {
  std::uint32_t crc = 0;
  for (const auto& [name, tensor] : model.tensors()) {
    const std::span<const float> data = tensor.data();
    crc = Crc32(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(data.data()),
                    data.size_bytes()),
                crc);
  }
  return crc;
}

std::string Fingerprint(
    std::uint32_t crc,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  std::string out = std::string("crc=") + hex;
  for (const auto& [key, value] : counters) {
    out += ";" + key + "=" + std::to_string(value);
  }
  return out;
}

double AttestMicros(std::uint64_t seed, std::size_t pairs) {
  const device::AttestationAuthority authority(seed * 0x9E3779B97F4A7C15ull +
                                               1);
  Rng rng(seed);
  std::vector<double> batch_us;
  std::size_t verified = 0;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < pairs; ++i) {
      const device::AttestationToken token =
          authority.Issue(DeviceId{1 + rng.UniformInt(std::uint64_t{100000})},
                          rng.Next());
      verified += authority.Verify(token) ? 1 : 0;
    }
    batch_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(pairs));
  }
  FL_CHECK(verified == 5 * pairs);
  return Median(batch_us);
}

namespace {

crypto::Key256 KeyFrom(Rng& rng) {
  crypto::Key256 k;
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.Next());
  return k;
}

struct ProbeRound {
  double advertise_s = 0;
  double share_keys_s = 0;
  double mask_input_s = 0;
  double finalize_s = 0;
  bool sum_matches = false;
  std::uint32_t sum_crc = 0;
};

ProbeRound RunOnce(const SecAggShape& shape, Rng& rng) {
  const std::size_t n = shape.group;
  const std::size_t threshold = std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::ceil(shape.threshold_fraction * static_cast<double>(n))));
  const std::size_t dropouts = static_cast<std::size_t>(
      std::floor(shape.dropout * static_cast<double>(n)));
  const std::uint32_t ring_mask =
      shape.ring_bits == 32 ? 0xFFFFFFFFu : ((1u << shape.ring_bits) - 1u);

  std::vector<std::vector<std::uint32_t>> inputs(n);
  std::vector<crypto::Key256> randomness(n);
  for (std::size_t i = 0; i < n; ++i) {
    randomness[i] = KeyFrom(rng);
    inputs[i].resize(shape.vector_length);
    for (auto& w : inputs[i]) w = static_cast<std::uint32_t>(rng.Next());
    for (auto& w : inputs[i]) w &= ring_mask;
  }
  ProbeRound out;

  // Advertise includes building the clients: that is where each client
  // draws its two DH key pairs.
  auto t0 = Clock::now();
  std::vector<secagg::SecAggClient> clients;
  clients.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    clients.emplace_back(static_cast<secagg::ParticipantIndex>(i + 1),
                         threshold, shape.vector_length, randomness[i],
                         shape.ring_bits);
  }
  secagg::SecAggServer server(threshold, shape.vector_length,
                              shape.ring_bits);
  for (auto& c : clients) {
    FL_CHECK(server.CollectAdvertisement(c.AdvertiseKeys()).ok());
  }
  auto directory = server.FinishAdvertising();
  FL_CHECK(directory.ok());
  out.advertise_s = SecondsSince(t0);

  t0 = Clock::now();
  for (auto& c : clients) {
    auto msg = c.ShareKeys(*directory);
    FL_CHECK(msg.ok());
    FL_CHECK(server.CollectShares(*msg).ok());
  }
  auto u1 = server.FinishSharing();
  FL_CHECK(u1.ok());
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& s :
         server.SharesFor(static_cast<secagg::ParticipantIndex>(i + 1))) {
      clients[i].ReceiveShare(s);
    }
  }
  out.share_keys_s = SecondsSince(t0);

  // The first `dropouts` clients vanish after sharing keys, so Finalize
  // must recover their pairwise masks from the survivors' shares.
  t0 = Clock::now();
  for (std::size_t i = dropouts; i < n; ++i) {
    auto masked = clients[i].MaskInput(inputs[i], *u1);
    FL_CHECK(masked.ok());
    FL_CHECK(server.CollectMaskedInput(*masked).ok());
  }
  auto request = server.FinishCommit();
  FL_CHECK(request.ok());
  out.mask_input_s = SecondsSince(t0);

  t0 = Clock::now();
  for (std::size_t i = dropouts; i < n; ++i) {
    auto resp = clients[i].Unmask(*request);
    FL_CHECK(resp.ok());
    FL_CHECK(server.CollectUnmaskingResponse(*resp).ok());
  }
  auto sum = server.Finalize();
  out.finalize_s = SecondsSince(t0);
  FL_CHECK(sum.ok());

  std::vector<std::uint32_t> expect(shape.vector_length, 0);
  for (std::size_t i = dropouts; i < n; ++i) {
    for (std::size_t j = 0; j < expect.size(); ++j) expect[j] += inputs[i][j];
  }
  for (auto& w : expect) w &= ring_mask;
  out.sum_matches = *sum == expect;
  out.sum_crc = Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(sum->data()),
      sum->size() * sizeof(std::uint32_t)));
  return out;
}

}  // namespace

SecAggProbe RunSecAggProbe(const SecAggShape& shape, std::uint64_t seed,
                           std::size_t repeats) {
  Rng rng(seed);
  std::vector<double> advertise, share, mask, finalize;
  SecAggProbe probe;
  probe.sum_matches = true;
  const double survivors = static_cast<double>(
      shape.group - static_cast<std::size_t>(std::floor(
                        shape.dropout * static_cast<double>(shape.group))));
  for (std::size_t r = 0; r < repeats; ++r) {
    const ProbeRound round = RunOnce(shape, rng);
    advertise.push_back(round.advertise_s * 1e3 /
                        static_cast<double>(shape.group));
    share.push_back(round.share_keys_s * 1e3 /
                    static_cast<double>(shape.group));
    mask.push_back(round.mask_input_s * 1e3 / survivors);
    finalize.push_back(round.finalize_s * 1e3);
    probe.sum_matches = probe.sum_matches && round.sum_matches;
    probe.sum_crc = Crc32(std::span<const std::uint8_t>(
                              reinterpret_cast<const std::uint8_t*>(
                                  &round.sum_crc),
                              sizeof(round.sum_crc)),
                          probe.sum_crc);
  }
  probe.advertise_ms = Median(advertise);
  probe.share_keys_ms = Median(share);
  probe.mask_input_ms = Median(mask);
  probe.finalize_ms = Median(finalize);
  return probe;
}

}  // namespace fl::perfbench
