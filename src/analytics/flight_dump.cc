#include "src/analytics/flight_dump.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>

namespace fl::analytics {
namespace {

// Mirrors the tracer's span codes (src/telemetry/trace.cc).
constexpr std::uint8_t kFlightSpanSource = 250;
constexpr std::uint8_t kFlightSpanBegin = 1;

constexpr std::uint64_t kBytesMask = (std::uint64_t{1} << 40) - 1;

constexpr std::array<const char*, 17> kReasonNames = {{
    "",                   // kNone
    "waiting pool full",  // selector strings, verbatim
    "not accepting",
    "quota reduced",
    "held too long",
    "round_full",
    "round_abandoned",
    "runtime_too_old",
    "late",
    "corrupt",
    "accumulate",
    "selection timeout",
    "below min_report",
    "master end of life before completion",
    "commit",
    "master_lost",
    "other",
}};

constexpr std::array<const char*, 4> kPhaseNames = {{
    "selection",
    "configuration",
    "reporting",
    "closing",
}};

// Interned codec names; id 0 is "none". Constant-initialized, so
// CodecName() is safe from a signal handler.
constexpr std::size_t kMaxCodecs = 64;
constexpr std::size_t kMaxCodecName = 40;
struct CodecTable {
  std::mutex mu;
  std::atomic<std::size_t> size{1};
  char names[kMaxCodecs][kMaxCodecName] = {};
};
CodecTable g_codecs;

// --- async-signal-safe formatting (FormatJournalLine) ---

void PutStr(char** p, const char* s) {
  while (*s != '\0') *(*p)++ = *s++;
}

void PutU64(char** p, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *(*p)++ = tmp[--n];
}

void PutI64(char** p, std::int64_t v) {
  if (v < 0) *(*p)++ = '-';
  PutU64(p, v < 0 ? 0 - static_cast<std::uint64_t>(v)
                  : static_cast<std::uint64_t>(v));
}

void PutField(char** p, const char* key, std::uint64_t v) {
  PutStr(p, key);
  PutU64(p, v);
}

// " reason=..." for a round loss. The counted reasons spell their counts
// out: fl_analyze reports the whole tail as the round's abort reason.
void PutLossReason(char** p, const Event& e) {
  PutStr(p, " reason=");
  switch (e.reason) {
    case FlightReason::kSelectionTimeout:
      PutField(p, "selection timeout with ", e.count);
      PutStr(p, " devices");
      break;
    case FlightReason::kBelowMinReports:
      PutField(p, "only ", e.count);
      PutField(p, " reports; need ", e.min_report);
      break;
    default:
      PutStr(p, FlightReasonName(e.reason));
  }
}

// One flight record as a dump line (journal record or `#span` comment), no
// trailing newline; 0 for a record that is neither. Async-signal-safe.
std::size_t FormatFlightLine(const telemetry::FlightRecord& f, char* out) {
  Event e;
  if (EventFromFlight(f, &e)) {
    return FormatJournalLine(e, static_cast<std::int64_t>(f.wall_us), out);
  }
  if (f.source != kFlightSpanSource) return 0;
  char* p = out;
  PutStr(&p, f.kind == kFlightSpanBegin ? "#span begin " : "#span end ");
  PutU64(&p, f.sim_ms);
  PutField(&p, " ", f.wall_us);
  PutField(&p, " name_hash=", f.aux_a);
  PutField(&p, " span_lo=", f.aux_b);
  if (f.round != 0) PutField(&p, " round=", f.round);
  if (f.session != 0) PutField(&p, " session=", f.session);
  if (f.device != 0) PutField(&p, " device=", f.device);
  return static_cast<std::size_t>(p - out);
}

void WriteAll(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n <= 0) return;  // best effort: the process is usually dying
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

const char* FlightReasonName(FlightReason r) {
  const auto i = static_cast<std::size_t>(r);
  return i < kReasonNames.size() ? kReasonNames[i] : "other";
}

std::uint8_t InternCodec(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_codecs.mu);
  const std::size_t n = g_codecs.size.load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < n; ++i) {
    if (name == g_codecs.names[i]) return static_cast<std::uint8_t>(i);
  }
  if (n == kMaxCodecs) return 0;
  name.copy(g_codecs.names[n], kMaxCodecName - 1);
  g_codecs.size.store(n + 1, std::memory_order_release);
  return static_cast<std::uint8_t>(n);
}

const char* CodecName(std::uint8_t id) {
  return id < g_codecs.size.load(std::memory_order_acquire) ? g_codecs.names[id]
                                                            : "";
}

std::size_t FormatJournalLine(const Event& e, std::int64_t wall_us,
                              char* out) {
  char* p = out;
  PutI64(&p, e.at.millis);
  *p++ = ' ';
  PutI64(&p, wall_us);
  *p++ = ' ';
  PutStr(&p, JournalSourceName(e.source));
  *p++ = ' ';
  PutStr(&p, JournalEventName(e.kind));
  PutField(&p, " ", e.device.value);
  PutField(&p, " ", e.session.value);
  PutField(&p, " ", e.round.value);
  switch (e.kind) {
    case JournalEventKind::kSessionEnd:
      PutField(&p, " completed=", e.count);
      break;
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      PutStr(&p, " reason=");
      PutStr(&p, FlightReasonName(e.reason));
      break;
    case JournalEventKind::kReportAccepted:
      // Tagged mode=secagg: masked inputs may legally commit after the
      // round's closing phase, so the analyzer's accept-after-close
      // invariant exempts them.
      if (e.count == 1) PutStr(&p, " mode=secagg");
      PutField(&p, " wire_bytes=", e.bytes);
      if (e.count != 1) {
        PutStr(&p, " codec=");
        PutStr(&p, CodecName(e.codec));
      }
      break;
    case JournalEventKind::kRoundOpen:
      PutField(&p, " goal=", e.count);
      PutField(&p, " min_report=", e.min_report);
      break;
    case JournalEventKind::kPhase:
      PutStr(&p, " phase=");
      PutStr(&p, e.count < kPhaseNames.size() ? kPhaseNames[e.count]
                                              : "unknown");
      break;
    case JournalEventKind::kRoundCommit:
      PutField(&p, " contributors=", e.count);
      PutField(&p, " min_report=", e.min_report);
      PutField(&p, " wire_bytes=", e.bytes);
      PutStr(&p, " codec=");
      PutStr(&p, CodecName(e.codec));
      break;
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome:
      PutStr(&p, " outcome=");
      PutStr(&p, protocol::RoundOutcomeName(e.outcome));
      if (e.outcome == protocol::RoundOutcome::kCommitted) {
        PutField(&p, " contributors=", e.count);
      }
      if (e.reason != FlightReason::kNone) PutLossReason(&p, e);
      break;
    case JournalEventKind::kSimRoundStart:
      PutField(&p, " want=", e.count);
      break;
    case JournalEventKind::kSimRoundComplete:
      PutField(&p, " got=", e.count);
      break;
    default:
      break;
  }
  return static_cast<std::size_t>(p - out);
}

void RecordFlight(const Event& e) {
  // aux_c packs bytes(40) | codec(8) | reason(8) | outcome(8).
  const std::uint64_t aux_c =
      (e.bytes & kBytesMask) | (std::uint64_t{e.codec} << 40) |
      (static_cast<std::uint64_t>(e.reason) << 48) |
      (static_cast<std::uint64_t>(e.outcome) << 56);
  telemetry::FlightRecorder::Global().Record(
      static_cast<std::uint8_t>(e.source), static_cast<std::uint8_t>(e.kind),
      static_cast<std::uint64_t>(e.at.millis), e.device.value, e.session.value,
      e.round.value, e.count,
      static_cast<std::uint16_t>(std::min<std::uint32_t>(e.min_report, 0xffff)),
      aux_c);
}

bool EventFromFlight(const telemetry::FlightRecord& rec, Event* out) {
  if (rec.source > static_cast<std::uint8_t>(JournalSource::kFrontend) ||
      !IsJournaled(static_cast<JournalEventKind>(rec.kind))) {
    return false;
  }
  // Out-of-range codes render as "other"/"unknown" (FlightReasonName,
  // RoundOutcomeName), so the decode needs no range checks.
  *out = Event{
      .at = SimTime{static_cast<std::int64_t>(rec.sim_ms)},
      .source = static_cast<JournalSource>(rec.source),
      .kind = static_cast<JournalEventKind>(rec.kind),
      .reason = static_cast<FlightReason>((rec.aux_c >> 48) & 0xff),
      .outcome = static_cast<protocol::RoundOutcome>(rec.aux_c >> 56),
      .codec = static_cast<std::uint8_t>(rec.aux_c >> 40),
      .count = rec.aux_a,
      .min_report = rec.aux_b,
      .device = DeviceId{rec.device},
      .session = SessionId{rec.session},
      .round = RoundId{rec.round},
      .bytes = rec.aux_c & kBytesMask};
  return true;
}

std::string FlightDumpText() {
  std::string out = Journal::kHeader;
  out += '\n';
  char line[kMaxJournalLine];
  for (const telemetry::FlightRecord& f :
       telemetry::FlightRecorder::Global().Snapshot()) {
    const std::size_t n = FormatFlightLine(f, line);
    if (n == 0) continue;
    out.append(line, n);
    out += '\n';
  }
  return out;
}

std::size_t FlightDumpToFd(int fd) {
  static const char kHeaderLine[] = "#fl-journal v1\n";
  WriteAll(fd, kHeaderLine, sizeof(kHeaderLine) - 1);
  std::size_t written = 0;
  telemetry::FlightRecorder::Global().ForEachUnordered(
      [fd, &written](const telemetry::FlightRecord& f) {
        char buf[kMaxJournalLine + 1];
        std::size_t n = FormatFlightLine(f, buf);
        if (n == 0) return;
        buf[n++] = '\n';
        WriteAll(fd, buf, n);
        ++written;
      });
  return written;
}

}  // namespace fl::analytics
