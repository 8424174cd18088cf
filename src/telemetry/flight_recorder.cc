#include "src/telemetry/flight_recorder.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "src/telemetry/telemetry.h"

namespace fl::telemetry {

namespace {

[[maybe_unused]] const bool g_flight_env_applied = [] {
  const char* env = std::getenv("FL_FLIGHT_RECORDER");
  const std::string_view v = env != nullptr ? env : "";
  if (v == "0" || v == "off" || v == "OFF") SetFlightRecorderEnabled(false);
  return true;
}();

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const recorder = new FlightRecorder();  // leaked
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::ThisThreadRing() {
  // One ring per (thread, recorder) pair; tests construct no extra
  // recorders, so a plain thread_local keyed on Global() suffices. The ring
  // is leaked deliberately: a crash dump after the thread exits must still
  // see its records.
  thread_local Ring* ring = [this]() -> Ring* {
    const std::size_t idx = ring_count_.fetch_add(1, std::memory_order_relaxed);
    if (idx >= kMaxThreads) {
      rings_exhausted_.store(true, std::memory_order_relaxed);
      return nullptr;
    }
    Ring* r = new Ring();
    rings_[idx].store(r, std::memory_order_release);
    return r;
  }();
  return ring;
}

void FlightRecorder::Record(std::uint8_t source, std::uint8_t kind,
                            std::uint64_t sim_ms, std::uint64_t device,
                            std::uint64_t session, std::uint64_t round,
                            std::uint32_t aux_a, std::uint16_t aux_b,
                            std::uint64_t aux_c) {
  Ring* ring = ThisThreadRing();
  if (ring == nullptr) return;  // > kMaxThreads writers; drop
  const std::uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  // Refresh the cached wall sample once per sim-second (first record
  // included: last_sim_ms starts at ~0). Wall time only correlates dumps
  // with external logs; the clock read is this path's largest cost, and
  // fleet records arrive ~45 sim-ms apart.
  if (sim_ms - ring->last_sim_ms >= 1000) {
    ring->last_sim_ms = sim_ms;
    ring->last_wall_us = static_cast<std::uint64_t>(WallMicros());
  }
  const std::uint64_t wall = ring->last_wall_us;
  const std::size_t slot = ring->write_index++ % kSlotsPerThread;
  std::atomic<std::uint64_t>* w = ring->slots[slot].w;
  // Single-writer seqlock: invalidate, payload (relaxed), publish (release).
  w[7].store(0, std::memory_order_release);
  w[0].store(sim_ms, std::memory_order_relaxed);
  w[1].store(wall, std::memory_order_relaxed);
  w[2].store(device, std::memory_order_relaxed);
  w[3].store(session, std::memory_order_relaxed);
  w[4].store(round, std::memory_order_relaxed);
  w[5].store(static_cast<std::uint64_t>(aux_a) |
                 (static_cast<std::uint64_t>(aux_b) << 32) |
                 (static_cast<std::uint64_t>(source) << 48) |
                 (static_cast<std::uint64_t>(kind) << 56),
             std::memory_order_relaxed);
  w[6].store(aux_c, std::memory_order_relaxed);
  w[7].store(seq, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(const Ring& ring, std::size_t slot,
                              FlightRecord* out) {
  const std::atomic<std::uint64_t>* w = ring.slots[slot].w;
  const std::uint64_t s1 = w[7].load(std::memory_order_acquire);
  if (s1 == 0) return false;
  out->sim_ms = w[0].load(std::memory_order_relaxed);
  out->wall_us = w[1].load(std::memory_order_relaxed);
  out->device = w[2].load(std::memory_order_relaxed);
  out->session = w[3].load(std::memory_order_relaxed);
  out->round = w[4].load(std::memory_order_relaxed);
  const std::uint64_t packed = w[5].load(std::memory_order_relaxed);
  out->aux_c = w[6].load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  const std::uint64_t s2 = w[7].load(std::memory_order_relaxed);
  if (s1 != s2) return false;  // slot being rewritten under us
  out->seq = s1;
  out->aux_a = static_cast<std::uint32_t>(packed & 0xffffffffu);
  out->aux_b = static_cast<std::uint16_t>((packed >> 32) & 0xffffu);
  out->source = static_cast<std::uint8_t>((packed >> 48) & 0xffu);
  out->kind = static_cast<std::uint8_t>((packed >> 56) & 0xffu);
  return true;
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> records;
  ForEachUnordered([&records](const FlightRecord& rec) {
    records.push_back(rec);
  });
  std::sort(records.begin(), records.end(),
            [](const FlightRecord& a, const FlightRecord& b) {
              return a.seq < b.seq;
            });
  return records;
}

void FlightRecorder::Clear() {
  const std::size_t n = ring_count_.load(std::memory_order_acquire);
  for (std::size_t r = 0; r < n && r < kMaxThreads; ++r) {
    Ring* ring = rings_[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t s = 0; s < kSlotsPerThread; ++s) {
      ring->slots[s].w[7].store(0, std::memory_order_release);
    }
  }
}

}  // namespace fl::telemetry
