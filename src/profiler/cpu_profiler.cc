#include "src/profiler/cpu_profiler.h"

#ifndef FL_PROFILER_DISABLED

#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

namespace fl::profiler {
namespace {

// ---------------------------------------------------------------------------
// Ring storage. All memory is allocated once, in normal context, before the
// timer is armed; the signal handler only ever loads pointers that were
// published with release stores.
//
// Slot layout (kWordsPerSlot atomic u64 words):
//   [0] seq (0 = invalid)           -- the seqlock word
//   [1] round | phase<<32 | actor<<40 | depth<<48
//   [2..2+depth) frames, leaf first
// ---------------------------------------------------------------------------
constexpr std::size_t kWordsPerSlot = 2 + CpuProfiler::kMaxFrames;

struct Ring {
  std::atomic<std::uint64_t> words[CpuProfiler::kSlotsPerRing * kWordsPerSlot];
  // Owner (signal handler on the claiming thread) only.
  std::uint64_t write_index = 0;
};

std::atomic<Ring*> g_rings[CpuProfiler::kMaxRings] = {};
std::atomic<std::size_t> g_ring_claim{0};
std::atomic<bool> g_rings_allocated{false};

std::atomic<std::uint64_t> g_next_seq{1};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_truncated{0};
std::atomic<std::uint64_t> g_overflow_drops{0};

std::atomic<bool> g_running{false};
std::atomic<int> g_hz{0};
std::atomic<bool> g_handler_installed{false};

// Per-thread ring index: -1 = unclaimed, -2 = claim failed (table full).
// Namespace-scope constant initialization keeps the TLS access guard-free,
// which is what makes it legal inside the signal handler.
thread_local int g_my_ring = -1;

// Claims a ring slot for the calling thread. Safe in signal context: one
// fetch_add plus an acquire load of a preallocated pointer.
inline Ring* ThisThreadRing() {
  int idx = g_my_ring;
  if (idx == -2) return nullptr;
  if (idx < 0) {
    const std::size_t claim =
        g_ring_claim.fetch_add(1, std::memory_order_relaxed);
    if (claim >= CpuProfiler::kMaxRings) {
      g_my_ring = -2;
      return nullptr;
    }
    g_my_ring = idx = static_cast<int>(claim);
  }
  return g_rings[idx].load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Frame-pointer unwinder. Returns the number of frames written (leaf PC
// first). Purely arithmetic + loads from the interrupted thread's own stack
// region: every dereference is bounds-checked against [sp, sp + 8 MiB)
// (stacks grow down, so live frame records sit above the interrupted sp and
// below the stack top) and 8-byte alignment, so a broken chain (a frame
// from a -fomit-frame-pointer libc leaf) terminates the walk instead of
// faulting.
// ---------------------------------------------------------------------------
constexpr std::uintptr_t kMaxStackSpan = std::uintptr_t{8} << 20;

// The walk reads other frames' stack words on purpose, including slots
// ASan has poisoned as out of scope in the interrupted frame, so it is
// exempt from ASan instrumentation, as stack walkers usually are.
__attribute__((no_sanitize("address")))
std::size_t UnwindFromContext(void* ucontext_raw,
                              std::uintptr_t* frames,
                              std::size_t max_frames,
                              bool* truncated) {
  const ucontext_t* uc = static_cast<const ucontext_t*>(ucontext_raw);
  std::uintptr_t pc = 0, fp = 0, sp = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
  fp = static_cast<std::uintptr_t>(uc->uc_mcontext.regs[29]);
  sp = static_cast<std::uintptr_t>(uc->uc_mcontext.sp);
#else
  (void)uc;
#endif
  std::size_t n = 0;
  if (pc != 0 && n < max_frames) frames[n++] = pc;
  if (sp == 0) return n;
  const std::uintptr_t bottom = sp;
  const std::uintptr_t top = sp + kMaxStackSpan;
  while (n < max_frames) {
    if (fp < bottom || fp + 2 * sizeof(std::uintptr_t) > top ||
        (fp & (sizeof(std::uintptr_t) - 1)) != 0) {
      return n;
    }
    const std::uintptr_t next_fp =
        *reinterpret_cast<const std::uintptr_t*>(fp);
    const std::uintptr_t ret =
        *reinterpret_cast<const std::uintptr_t*>(fp + sizeof(std::uintptr_t));
    if (ret < 4096) return n;  // null / bogus return address
    frames[n++] = ret;
    if (next_fp <= fp) return n;  // frame chains must move up the stack
    fp = next_fp;
  }
  *truncated = true;
  return n;
}

// Writes one sample into the calling thread's ring. Shared by the signal
// handler and RecordSynthetic so tests exercise the production write path.
void WriteSample(const std::uintptr_t* frames, std::size_t depth) {
  Ring* ring = ThisThreadRing();
  if (ring == nullptr) {
    g_overflow_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (depth > CpuProfiler::kMaxFrames) depth = CpuProfiler::kMaxFrames;
  const std::uint64_t seq = g_next_seq.fetch_add(1, std::memory_order_relaxed);
  const ProfileTag tag = internal::g_tag;
  const std::uint64_t packed =
      static_cast<std::uint64_t>(tag.round) |
      (static_cast<std::uint64_t>(tag.phase) << 32) |
      (static_cast<std::uint64_t>(tag.actor) << 40) |
      (static_cast<std::uint64_t>(depth) << 48);
  const std::size_t slot = ring->write_index++ % CpuProfiler::kSlotsPerRing;
  std::atomic<std::uint64_t>* w = &ring->words[slot * kWordsPerSlot];
  // Single-writer seqlock: invalidate, payload (relaxed), publish (release).
  w[0].store(0, std::memory_order_release);
  w[1].store(packed, std::memory_order_relaxed);
  for (std::size_t i = 0; i < depth; ++i) {
    w[2 + i].store(static_cast<std::uint64_t>(frames[i]),
                   std::memory_order_relaxed);
  }
  w[0].store(seq, std::memory_order_release);
  g_samples.fetch_add(1, std::memory_order_relaxed);
}

void SigProfHandler(int /*sig*/, siginfo_t* /*info*/, void* ucontext_raw) {
  // A sample between Stop() and timer drain is harmless; taking it keeps
  // the handler branch-light. Preserve errno for the interrupted code.
  const int saved_errno = errno;
  std::uintptr_t frames[CpuProfiler::kMaxFrames];
  bool truncated = false;
  const std::size_t depth = UnwindFromContext(
      ucontext_raw, frames, CpuProfiler::kMaxFrames, &truncated);
  if (truncated) g_truncated.fetch_add(1, std::memory_order_relaxed);
  if (depth > 0) WriteSample(frames, depth);
  errno = saved_errno;
}

// Reads one slot via the seqlock; false when invalid or mid-rewrite.
bool ReadSlot(const Ring& ring, std::size_t slot, CpuSample* out) {
  const std::atomic<std::uint64_t>* w = &ring.words[slot * kWordsPerSlot];
  const std::uint64_t s1 = w[0].load(std::memory_order_acquire);
  if (s1 == 0) return false;
  const std::uint64_t packed = w[1].load(std::memory_order_relaxed);
  const std::size_t depth =
      std::min<std::size_t>(packed >> 48, CpuProfiler::kMaxFrames);
  std::uintptr_t frames[CpuProfiler::kMaxFrames];
  for (std::size_t i = 0; i < depth; ++i) {
    frames[i] =
        static_cast<std::uintptr_t>(w[2 + i].load(std::memory_order_relaxed));
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (w[0].load(std::memory_order_relaxed) != s1) return false;
  out->seq = s1;
  out->round = static_cast<std::uint32_t>(packed & 0xffffffffu);
  out->phase = static_cast<std::uint8_t>((packed >> 32) & 0xffu);
  out->actor = static_cast<std::uint8_t>((packed >> 40) & 0xffu);
  out->frames.assign(frames, frames + depth);
  return true;
}

// Async-signal-safe formatting helpers for DumpRawToFd.
std::size_t AppendHex(char* buf, std::uintptr_t v) {
  char tmp[2 * sizeof(v)];
  std::size_t n = 0;
  do {
    tmp[n++] = "0123456789abcdef"[v & 0xf];
    v >>= 4;
  } while (v != 0);
  buf[0] = '0';
  buf[1] = 'x';
  for (std::size_t i = 0; i < n; ++i) buf[2 + i] = tmp[n - 1 - i];
  return 2 + n;
}

std::size_t AppendDec(char* buf, std::uint64_t v) {
  char tmp[20];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

std::size_t AppendStr(char* buf, const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') {
    buf[n] = s[n];
    ++n;
  }
  return n;
}

}  // namespace

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* const profiler = new CpuProfiler();  // leaked
  return *profiler;
}

Status CpuProfiler::Start(int hz) {
  if (hz <= 0 || hz > kMaxHz) {
    return InvalidArgumentError("cpu profiler hz out of range");
  }
  bool expected = false;
  if (!g_running.compare_exchange_strong(expected, true)) {
    return FailedPreconditionError("cpu profiler already running");
  }
  if (!g_rings_allocated.load(std::memory_order_acquire)) {
    for (std::size_t i = 0; i < kMaxRings; ++i) {
      // Zero-initialized: every slot starts with seq 0 = invalid.
      g_rings[i].store(new Ring(), std::memory_order_release);
    }
    g_rings_allocated.store(true, std::memory_order_release);
  }
  if (!g_handler_installed.load(std::memory_order_acquire)) {
    struct sigaction sa{};
    sa.sa_sigaction = SigProfHandler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART: a sample landing inside accept/read must not surface
    // EINTR to the ops-plane sockets.
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    if (::sigaction(SIGPROF, &sa, nullptr) != 0) {
      g_running.store(false, std::memory_order_release);
      return Status{ErrorCode::kUnavailable, "sigaction(SIGPROF) failed"};
    }
    g_handler_installed.store(true, std::memory_order_release);
  }
  g_hz.store(hz, std::memory_order_relaxed);
  itimerval timer{};
  const long interval_us = std::max<long>(1, 1'000'000L / hz);
  timer.it_interval.tv_sec = interval_us / 1'000'000;
  timer.it_interval.tv_usec = interval_us % 1'000'000;
  timer.it_value = timer.it_interval;
  if (::setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_running.store(false, std::memory_order_release);
    return Status{ErrorCode::kUnavailable, "setitimer(ITIMER_PROF) failed"};
  }
  return Status::Ok();
}

void CpuProfiler::Stop() {
  if (!g_running.exchange(false)) return;
  itimerval off{};
  (void)::setitimer(ITIMER_PROF, &off, nullptr);
  g_hz.store(0, std::memory_order_relaxed);
}

bool CpuProfiler::running() const {
  return g_running.load(std::memory_order_acquire);
}
int CpuProfiler::hz() const { return g_hz.load(std::memory_order_relaxed); }
std::uint64_t CpuProfiler::samples_taken() const {
  return g_samples.load(std::memory_order_relaxed);
}
std::uint64_t CpuProfiler::unwind_truncated() const {
  return g_truncated.load(std::memory_order_relaxed);
}
std::uint64_t CpuProfiler::ring_overflow_drops() const {
  return g_overflow_drops.load(std::memory_order_relaxed);
}
std::uint64_t CpuProfiler::last_seq() const {
  return g_next_seq.load(std::memory_order_relaxed) - 1;
}
std::size_t CpuProfiler::rings_registered() const {
  return std::min<std::size_t>(g_ring_claim.load(std::memory_order_relaxed),
                               kMaxRings);
}

std::vector<CpuSample> CpuProfiler::CollectSince(std::uint64_t min_seq) const {
  std::vector<CpuSample> out;
  if (!g_rings_allocated.load(std::memory_order_acquire)) return out;
  for (std::size_t r = 0; r < kMaxRings; ++r) {
    const Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t s = 0; s < kSlotsPerRing; ++s) {
      CpuSample sample;
      if (ReadSlot(*ring, s, &sample) && sample.seq > min_seq) {
        out.push_back(std::move(sample));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CpuSample& a, const CpuSample& b) { return a.seq < b.seq; });
  return out;
}

std::size_t CpuProfiler::DumpRawToFd(int fd, std::uint64_t min_seq) const {
  if (!g_rings_allocated.load(std::memory_order_acquire)) return 0;
  std::size_t total = 0;
  // Worst case per line: 48 frames x ~19 chars + tags; 1400 is generous.
  char line[1400];
  for (std::size_t r = 0; r < kMaxRings; ++r) {
    const Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t s = 0; s < kSlotsPerRing; ++s) {
      // Signal context: reuse the seqlock read but into fixed storage.
      const std::atomic<std::uint64_t>* w = &ring->words[s * kWordsPerSlot];
      const std::uint64_t s1 = w[0].load(std::memory_order_acquire);
      if (s1 == 0 || s1 <= min_seq) continue;
      const std::uint64_t packed = w[1].load(std::memory_order_relaxed);
      const std::size_t depth = std::min<std::size_t>(packed >> 48, kMaxFrames);
      std::uintptr_t frames[kMaxFrames];
      for (std::size_t i = 0; i < depth; ++i) {
        frames[i] = static_cast<std::uintptr_t>(
            w[2 + i].load(std::memory_order_relaxed));
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (w[0].load(std::memory_order_relaxed) != s1) continue;
      std::size_t n = 0;
      for (std::size_t i = 0; i < depth && n + 24 < sizeof(line); ++i) {
        if (i > 0) line[n++] = ';';
        n += AppendHex(line + n, frames[i]);
      }
      n += AppendStr(line + n, " phase=");
      n += AppendStr(line + n,
                     PhaseName(static_cast<Phase>(
                         std::min<std::uint64_t>((packed >> 32) & 0xff,
                                                 static_cast<std::uint64_t>(
                                                     Phase::kCount)))));
      n += AppendStr(line + n, " actor=");
      const std::uint64_t actor = (packed >> 40) & 0xff;
      n += AppendStr(line + n,
                     ActorTagName(actor <= 5 ? static_cast<ActorTag>(actor)
                                             : ActorTag::kOther));
      n += AppendStr(line + n, " round=");
      n += AppendDec(line + n, packed & 0xffffffffu);
      line[n++] = '\n';
      ssize_t written = ::write(fd, line, n);
      if (written > 0) total += static_cast<std::size_t>(written);
    }
  }
  return total;
}

void CpuProfiler::RecordSynthetic(const std::uintptr_t* frames,
                                  std::size_t depth) {
  // Rings may not exist yet when no Start() ran (tests drive this path
  // directly); allocate them exactly as Start() would.
  if (!g_rings_allocated.load(std::memory_order_acquire)) {
    static std::mutex* const mu = new std::mutex();
    const std::lock_guard<std::mutex> lock(*mu);
    if (!g_rings_allocated.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < kMaxRings; ++i) {
        g_rings[i].store(new Ring(), std::memory_order_release);
      }
      g_rings_allocated.store(true, std::memory_order_release);
    }
  }
  WriteSample(frames, depth);
}

void CpuProfiler::ClearForTest() {
  if (!g_rings_allocated.load(std::memory_order_acquire)) return;
  for (std::size_t r = 0; r < kMaxRings; ++r) {
    Ring* ring = g_rings[r].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t s = 0; s < kSlotsPerRing; ++s) {
      ring->words[s * kWordsPerSlot].store(0, std::memory_order_release);
    }
  }
  g_samples.store(0, std::memory_order_relaxed);
  g_truncated.store(0, std::memory_order_relaxed);
  g_overflow_drops.store(0, std::memory_order_relaxed);
}

}  // namespace fl::profiler

#else  // FL_PROFILER_DISABLED

namespace fl::profiler {

CpuProfiler& CpuProfiler::Global() {
  static CpuProfiler* const profiler = new CpuProfiler();
  return *profiler;
}
Status CpuProfiler::Start(int) {
  return UnimplementedError("profiler compiled out (FL_PROFILER=OFF)");
}
void CpuProfiler::Stop() {}
bool CpuProfiler::running() const { return false; }
int CpuProfiler::hz() const { return 0; }
std::uint64_t CpuProfiler::samples_taken() const { return 0; }
std::uint64_t CpuProfiler::unwind_truncated() const { return 0; }
std::uint64_t CpuProfiler::ring_overflow_drops() const { return 0; }
std::uint64_t CpuProfiler::last_seq() const { return 0; }
std::size_t CpuProfiler::rings_registered() const { return 0; }
std::vector<CpuSample> CpuProfiler::CollectSince(std::uint64_t) const {
  return {};
}
std::size_t CpuProfiler::DumpRawToFd(int, std::uint64_t) const { return 0; }
void CpuProfiler::RecordSynthetic(const std::uintptr_t*, std::size_t) {}
void CpuProfiler::ClearForTest() {}

}  // namespace fl::profiler

#endif  // FL_PROFILER_DISABLED
