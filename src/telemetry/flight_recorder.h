// Always-on flight recorder (Sec. 8 / ROADMAP "undebuggable without it"):
// fixed-memory, per-thread rings of compact binary records that keep the
// last moments of protocol history even when telemetry and the journal are
// OFF. When something trips — a HealthEvaluator breach, an abandoned round,
// a fatal signal — the rings are dumped into a diagnostic bundle
// (src/ops/debug_bundle.h) and replayed by `fl_analyze --critical-path`.
//
// Memory model:
//  * One ring per writer thread, registered on first Record() and retained
//    for process lifetime (a dump after a thread exits still sees its tail).
//  * Each slot is 8 atomic u64 words (64 B): seven payload words written
//    with relaxed stores, then a sequence word written with a release store.
//    Readers (Snapshot / crash dump) validate each slot with an acquire
//    load, copy, fence, re-load — the single-writer seqlock. A torn read
//    would need the writer to lap the whole ring (kSlotsPerThread records)
//    inside the reader's sub-microsecond copy window, so validation failures
//    mean "slot being reused right now" and the slot is simply skipped.
//  * No allocation, locking, or RMW on the record path (one relaxed gate
//    load, one relaxed fetch_add on the global sequence); bounded by
//    kMaxThreads * kSlotsPerThread * 64 B total.
//
// Runtime switch: default ON (this is the point — evidence exists before
// anyone asks for it); FL_FLIGHT_RECORDER=0 disables for the rare
// deployment that cannot spare the memory. One relaxed load per hook.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace fl::telemetry {

namespace internal {
// On by default; flight_recorder.cc applies FL_FLIGHT_RECORDER ("0"/"off" →
// false) during static initialization.
inline std::atomic<bool> g_flight_enabled{true};
}  // namespace internal

inline bool FlightRecorderEnabled() {
  return internal::g_flight_enabled.load(std::memory_order_relaxed);
}
inline void SetFlightRecorderEnabled(bool on) {
  internal::g_flight_enabled.store(on, std::memory_order_relaxed);
}

// A decoded slot. `source` and `kind` are opaque u8 codes at this layer;
// src/analytics/flight_dump.h owns the mapping to journal enums so
// fl_telemetry keeps zero protocol dependencies.
struct FlightRecord {
  std::uint64_t seq = 0;      // global order of the Record() call, from 1
  std::uint64_t sim_ms = 0;
  std::uint64_t wall_us = 0;  // telemetry::WallMicros() at record time
  std::uint64_t device = 0;
  std::uint64_t session = 0;
  std::uint64_t round = 0;
  std::uint32_t aux_a = 0;    // per-kind payload (goal, phase index, ...)
  std::uint16_t aux_b = 0;    // per-kind payload (min_report, span id, ...)
  std::uint64_t aux_c = 0;    // per-kind payload (bytes, reason code, ...)
  std::uint8_t source = 0;
  std::uint8_t kind = 0;
};

class FlightRecorder {
 public:
  // 4096 slots x 64 B = 256 KiB per writer thread: the last several rounds
  // of protocol history, small enough that the ring's cache footprint stays
  // out of the simulator's way (a larger ring measurably taxes the fleet
  // macro bench through L2 eviction, not instruction cost).
  static constexpr std::size_t kSlotsPerThread = std::size_t{1} << 12;
  static constexpr std::size_t kMaxThreads = 128;
  static constexpr std::size_t kWordsPerSlot = 8;  // 7 payload + seq = 64 B

  static FlightRecorder& Global();

  // Callers pre-check FlightRecorderEnabled(); Record() itself always
  // writes (tests and the dump drive it deterministically).
  void Record(std::uint8_t source, std::uint8_t kind, std::uint64_t sim_ms,
              std::uint64_t device, std::uint64_t session, std::uint64_t round,
              std::uint32_t aux_a = 0, std::uint16_t aux_b = 0,
              std::uint64_t aux_c = 0);

  // All currently-valid slots across every ring, sorted by seq. Allocates;
  // not for signal handlers (those use ForEachUnordered).
  std::vector<FlightRecord> Snapshot() const;

  // Signal-safe iteration: no allocation or locking; slots visit in
  // arbitrary order. `fn` is called with each validated record.
  template <typename Fn>
  void ForEachUnordered(Fn&& fn) const {
    const std::size_t n = ring_count_.load(std::memory_order_acquire);
    for (std::size_t r = 0; r < n && r < kMaxThreads; ++r) {
      const Ring* ring = rings_[r].load(std::memory_order_acquire);
      if (ring == nullptr) continue;
      for (std::size_t s = 0; s < kSlotsPerThread; ++s) {
        FlightRecord rec;
        if (ReadSlot(*ring, s, &rec)) fn(rec);
      }
    }
  }

  // Invalidates every slot (tests; bundle rate-limiting keeps real dumps
  // from needing this).
  void Clear();

  std::uint64_t total_records() const {
    return next_seq_.load(std::memory_order_relaxed) - 1;
  }
  std::size_t rings_registered() const {
    return ring_count_.load(std::memory_order_relaxed);
  }
  // True when a thread failed to get a ring (> kMaxThreads writers).
  bool rings_exhausted() const {
    return rings_exhausted_.load(std::memory_order_relaxed);
  }

 private:
  // Slot layout: [0]=sim_ms [1]=wall_us [2]=device [3]=session [4]=round
  // [5]=aux_a | aux_b<<32 | source<<48 | kind<<56, [6]=aux_c,
  // [7]=seq (0 = invalid). Cache-line aligned, so a record dirties exactly
  // one line of the simulator's cache.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> w[kWordsPerSlot];
  };
  struct Ring {
    std::vector<Slot> slots = std::vector<Slot>(kSlotsPerThread);
    // Owner thread only; Record() explains the wall-clock stride.
    std::uint64_t write_index = 0;
    std::uint64_t last_sim_ms = ~std::uint64_t{0};
    std::uint64_t last_wall_us = 0;
  };

  FlightRecorder() = default;
  Ring* ThisThreadRing();
  static bool ReadSlot(const Ring& ring, std::size_t slot, FlightRecord* out);

  std::atomic<Ring*> rings_[kMaxThreads] = {};
  std::atomic<std::size_t> ring_count_{0};
  std::atomic<bool> rings_exhausted_{false};
  std::atomic<std::uint64_t> next_seq_{1};
};

}  // namespace fl::telemetry
