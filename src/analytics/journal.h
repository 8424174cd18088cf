// Durable event journal (Sec. 5): "we also log an event for every state in a
// training round" — devices and server actors emit one typed Event per fact
// (analytics/emit.h), and the journal writes the journaled kinds to a
// line-delimited log that survives the process, so session shapes (Table 1)
// can be regenerated offline and bugs show up as "deviations from the
// expected state sequences" (checked by tools/log_analyzer + the fl_analyze
// CLI).
//
// Gating mirrors telemetry: JournalEnabled() is one relaxed atomic load,
// false until a journal file is opened, so Emit() costs one predictable
// branch here when journaling is off. Writes go through a buffered sink
// (format into a stack buffer, append to a heap buffer under a mutex, flush
// to disk in large blocks), so the enabled path stays cheap too.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>

#include "src/analytics/events.h"
#include "src/common/id.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/protocol/round_config.h"

namespace fl::analytics {

// Who emitted the fact. One value per paper actor (Sec. 4.2) plus the
// in-process modeling simulator (Sec. 7.1) and the check-in front end.
enum class JournalSource : std::uint8_t {
  kDevice = 0,
  kSelector,
  kMaster,
  kAggregator,
  kCoordinator,
  kSim,
  kFrontend,
};

const char* JournalSourceName(JournalSource s);
Result<JournalSource> ParseJournalSource(std::string_view name);

// Every emitted fact. The first block mirrors SessionEvent one-to-one
// (device-side, Table 1 glyphs); then server/sim states; the last block is
// stats-only: FleetStats, the RoundLedger and the fl_server_* counters fold
// those, the journal and the flight ring skip them.
enum class JournalEventKind : std::uint8_t {
  // --- device session events (Table 1) ---
  kCheckin = 0,        // '-'
  kPlanDownloaded,     // 'v'
  kTrainStart,         // '['
  kTrainComplete,      // ']'
  kUploadStart,        // '+'
  kUploadComplete,     // '^'
  kUploadRejected,     // '#'
  kInterrupted,        // '!'
  kError,              // '*'
  kSessionEnd,         // device session teardown (not part of the shape)
  // --- server events ---
  kCheckinAccepted,    // selector admitted the device to its waiting pool
  kCheckinRejected,    // selector/master/aggregator turned the device away
  kRoundOpen,          // master aggregator spawned for a round
  kPhase,              // round phase transition
  kReportAccepted,     // aggregator folded a device report into the sum
  kReportRejected,     // aggregator refused a report (late/corrupt)
  kRoundCommit,        // master reached the participant goal
  kRoundAbandoned,     // master gave up (outcome + reason)
  kRoundOutcome,       // coordinator's final verdict for the round
  // --- modeling simulator (tools/simulation_runner) ---
  kSimRoundStart,
  kSimRoundComplete,
  // --- stats-only facts ---
  kMasterAccepted,      // master took a forwarded device into the round
  kParticipantAborted,  // aggregator closed a participant: work discarded
  kParticipantDropped,  // participant lost (aggregator close, device cap)
  kDownload,            // bytes server -> device at the server NIC (Fig. 9)
  kUpload,              // bytes device -> server at the server NIC
  kServerError,
};

const char* JournalEventName(JournalEventKind k);
Result<JournalEventKind> ParseJournalEvent(std::string_view name);

// True for the kinds the journal and the flight ring record.
inline bool IsJournaled(JournalEventKind k) {
  return k <= JournalEventKind::kSimRoundComplete;
}

// Device SessionEvent <-> JournalEventKind (the first nine kinds).
JournalEventKind JournalEventForSession(SessionEvent e);
// Returns false when `k` is not a device session event.
bool SessionEventForJournal(JournalEventKind k, SessionEvent* out);

// Why a device was turned away, a report refused or a round lost. The
// journal detail renders FlightReasonName (analytics/flight_dump.h: "late",
// "round_full", ...); the two loss reasons that carry counts render them
// too ("selection timeout with 3 devices", "only 2 reports; need 4").
enum class FlightReason : std::uint8_t {
  kNone = 0,
  // Selector rejections.
  kWaitingPoolFull,   // "waiting pool full"
  kNotAccepting,      // "not accepting"
  kQuotaReduced,      // "quota reduced"
  kHeldTooLong,       // "held too long"
  // Master / configuration rejections.
  kRoundFull,         // "round_full"
  kRoundAbandonedReject,  // "round_abandoned" (pending links on abandon)
  kRuntimeTooOld,     // "runtime_too_old"
  // Aggregator report rejections.
  kLate,              // "late"
  kCorrupt,           // "corrupt"
  kAccumulate,        // "accumulate"
  // Round-loss reasons (abandon / coordinator outcome).
  kSelectionTimeout,  // "selection timeout"
  kBelowMinReports,   // "below min_report"
  kMasterEndOfLife,   // "master end of life before completion"
  kCommitFailed,      // "commit"
  kMasterLost,        // "master_lost"
  kOther,
};

// One fact, emitted once at its site (analytics/emit.h) and rendered by
// FormatJournalLine (analytics/flight_dump.h). Fixed fields only, so
// emitting builds no strings. Ids use 0 for "not applicable" (a round-level
// event has no device/session; a pre-assignment device event has no round).
// The per-kind fields:
//   count       session_end: 1 = completed; report_accepted: 1 = a SecAgg
//               masked input; round_open: goal; phase: phase index
//               (selection, configuration, reporting, closing);
//               round_commit and committed round_outcome: contributors;
//               round losses: the devices/reports their reason counts;
//               sim_round_start: clients wanted; sim_round_complete: got
//   min_report  round_open, round_commit, below-min-report losses
//   bytes       report_accepted, round_commit: wire bytes; download/upload
//   codec       report_accepted (plain), round_commit: InternCodec id
//   reason      rejections and round losses
//   outcome     round_abandoned, round_outcome
//   selection_duration, round_duration   committed round_outcome
struct Event {
  SimTime at{};
  JournalSource source = JournalSource::kDevice;
  JournalEventKind kind = JournalEventKind::kCheckin;
  FlightReason reason = FlightReason::kNone;
  protocol::RoundOutcome outcome = protocol::RoundOutcome::kCommitted;
  std::uint8_t codec = 0;
  std::uint32_t count = 0;
  std::uint32_t min_report = 0;
  DeviceId device{};
  SessionId session{};
  RoundId round{};
  std::uint64_t bytes = 0;
  Duration selection_duration{};
  Duration round_duration{};
};

// One parsed journal line (the reader side: tools/log_analyzer, tests).
struct JournalRecord {
  SimTime sim_time;
  std::int64_t wall_us = 0;
  JournalSource source = JournalSource::kDevice;
  JournalEventKind event = JournalEventKind::kCheckin;
  DeviceId device;
  SessionId session;
  RoundId round;
  // Free-form key=value details (reason, phase name, contributors=N ...).
  // May contain spaces; newlines/backslashes are escaped on the wire.
  std::string detail;

  // One line, no trailing newline:
  //   <sim_ms> <wall_us> <source> <event> <device> <session> <round> [detail]
  std::string Serialize() const;
  static Result<JournalRecord> Parse(std::string_view line);
};

// Pulls "key=value" out of a record detail string ("a=1 b=x y"). Values run
// to the next space; returns false when the key is absent.
bool DetailField(std::string_view detail, std::string_view key,
                 std::string* value);
// Integer convenience over DetailField; returns `fallback` when missing or
// non-numeric.
std::int64_t DetailInt(std::string_view detail, std::string_view key,
                       std::int64_t fallback);

namespace journal_internal {
inline std::atomic<bool> g_enabled{false};
}  // namespace journal_internal

// One relaxed load; Emit() checks it so a disabled deployment performs no
// formatting, locking, or allocation.
inline bool JournalEnabled() {
  return journal_internal::g_enabled.load(std::memory_order_relaxed);
}

// The process-wide journal sink. Open() enables JournalEnabled(); Close()
// flushes and disables it. Append() is thread-safe (the parallel round
// engine emits from pool workers).
class Journal {
 public:
  static Journal& Global();

  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Creates/truncates `path`, writes the header line, and flips the global
  // enabled flag on success.
  Status Open(const std::string& path);
  bool is_open() const;
  // Flushes buffered records to disk (fwrite + fflush).
  void Flush();
  // Crash-path flush: try-locks the mutex so a fatal-signal handler that
  // interrupted a writer mid-append skips the flush instead of deadlocking.
  // Returns false when the lock was contended (buffer left as-is). Not
  // strictly async-signal-safe (fwrite/fflush), but the process is dying and
  // losing the tail is the alternative.
  bool FlushBestEffort();
  // Flush + close + disable. Idempotent.
  void Close();

  // Renders `e` through FormatJournalLine, stamped with the wall clock.
  void Append(const Event& e);

  std::uint64_t events_written() const {
    return events_written_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

  // The journal format version header ("#fl-journal v1"); parsers skip
  // every line starting with '#'.
  static constexpr const char* kHeader = "#fl-journal v1";

 private:
  void FlushLocked();

  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string buffer_;
  std::atomic<std::uint64_t> events_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

}  // namespace fl::analytics
