#include "src/analytics/flight_dump.h"

#include <unistd.h>

#include <array>

namespace fl::analytics {
namespace {

// Mirrors the tracer's span codes (src/telemetry/trace.cc).
constexpr std::uint8_t kFlightSpanSource = 250;
constexpr std::uint8_t kFlightSpanBegin = 1;

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
    "master end of life",
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

bool IsJournalKind(std::uint8_t source, std::uint8_t kind) {
  return source <= static_cast<std::uint8_t>(JournalSource::kSim) &&
         kind <= static_cast<std::uint8_t>(JournalEventKind::kSimRoundComplete);
}

FlightReason ReasonOf(std::uint16_t aux_b) {
  const std::uint8_t code = static_cast<std::uint8_t>(aux_b & 0xffu);
  return code < kReasonNames.size() ? static_cast<FlightReason>(code)
                                    : FlightReason::kOther;
}

// Inverse of PackOutcomeReason's high byte; false when no outcome encoded.
bool OutcomeOf(std::uint16_t aux_b, protocol::RoundOutcome* out) {
  const std::uint8_t hi = static_cast<std::uint8_t>(aux_b >> 8);
  if (hi == 0 || hi > 4) return false;
  *out = static_cast<protocol::RoundOutcome>(hi - 1);
  return true;
}

// --- async-signal-safe formatting (FlightDumpToFd) ---

void PutU64(char** p, std::uint64_t v) {
  char tmp[20];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *(*p)++ = tmp[--n];
}

void PutStr(char** p, const char* s) {
  while (*s != '\0') *(*p)++ = *s++;
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

bool JournalRecordFromFlight(const telemetry::FlightRecord& rec,
                             JournalRecord* out) {
  if (!IsJournalKind(rec.source, rec.kind)) return false;
  out->sim_time = SimTime{static_cast<std::int64_t>(rec.sim_ms)};
  out->wall_us = static_cast<std::int64_t>(rec.wall_us);
  out->source = static_cast<JournalSource>(rec.source);
  out->event = static_cast<JournalEventKind>(rec.kind);
  out->device = DeviceId{rec.device};
  out->session = SessionId{rec.session};
  out->round = RoundId{rec.round};
  out->detail.clear();
  const FlightReason reason = ReasonOf(rec.aux_b);
  switch (out->event) {
    case JournalEventKind::kSessionEnd:
      out->detail = "completed=" + std::to_string(rec.aux_a);
      break;
    case JournalEventKind::kCheckinRejected:
    case JournalEventKind::kReportRejected:
      out->detail = std::string("reason=") + FlightReasonName(reason);
      break;
    case JournalEventKind::kReportAccepted:
      if (rec.aux_a == 1) out->detail = "mode=secagg";
      break;
    case JournalEventKind::kRoundOpen:
      out->detail = "goal=" + std::to_string(rec.aux_a) +
                    " min_report=" + std::to_string(rec.aux_b);
      break;
    case JournalEventKind::kPhase:
      out->detail =
          std::string("phase=") +
          (rec.aux_a < kPhaseNames.size() ? kPhaseNames[rec.aux_a] : "unknown");
      break;
    case JournalEventKind::kRoundCommit:
      out->detail = "contributors=" + std::to_string(rec.aux_a) +
                    " min_report=" + std::to_string(rec.aux_b);
      break;
    case JournalEventKind::kRoundAbandoned:
    case JournalEventKind::kRoundOutcome: {
      protocol::RoundOutcome outcome;
      if (OutcomeOf(rec.aux_b, &outcome)) {
        out->detail =
            std::string("outcome=") + protocol::RoundOutcomeName(outcome);
        if (outcome == protocol::RoundOutcome::kCommitted) {
          out->detail += " contributors=" + std::to_string(rec.aux_a);
        }
      }
      if (reason != FlightReason::kNone) {
        if (!out->detail.empty()) out->detail += ' ';
        out->detail += std::string("reason=") + FlightReasonName(reason);
      }
      break;
    }
    default:
      break;
  }
  return true;
}

std::string FlightDumpText() {
  std::string out = Journal::kHeader;
  out += '\n';
  JournalRecord rec;
  for (const telemetry::FlightRecord& f :
       telemetry::FlightRecorder::Global().Snapshot()) {
    if (JournalRecordFromFlight(f, &rec)) {
      out += rec.Serialize();
      out += '\n';
    } else if (f.source == kFlightSpanSource) {
      out += f.kind == kFlightSpanBegin ? "#span begin " : "#span end ";
      out += std::to_string(f.sim_ms) + ' ' + std::to_string(f.wall_us);
      out += " name_hash=" + std::to_string(f.aux_a);
      out += " span_lo=" + std::to_string(f.aux_b);
      if (f.round != 0) out += " round=" + std::to_string(f.round);
      if (f.session != 0) out += " session=" + std::to_string(f.session);
      if (f.device != 0) out += " device=" + std::to_string(f.device);
      out += '\n';
    }
  }
  return out;
}

std::size_t FlightDumpToFd(int fd) {
  static const char kHeaderLine[] = "#fl-journal v1\n";
  WriteAll(fd, kHeaderLine, sizeof(kHeaderLine) - 1);
  std::size_t written = 0;
  telemetry::FlightRecorder::Global().ForEachUnordered(
      [fd, &written](const telemetry::FlightRecord& f) {
        // Worst case per line: 7 u64 fields + names + detail < 256 bytes.
        char buf[320];
        char* p = buf;
        if (IsJournalKind(f.source, f.kind)) {
          PutU64(&p, f.sim_ms);
          *p++ = ' ';
          PutU64(&p, f.wall_us);
          *p++ = ' ';
          PutStr(&p, JournalSourceName(static_cast<JournalSource>(f.source)));
          *p++ = ' ';
          PutStr(&p, JournalEventName(static_cast<JournalEventKind>(f.kind)));
          *p++ = ' ';
          PutU64(&p, f.device);
          *p++ = ' ';
          PutU64(&p, f.session);
          *p++ = ' ';
          PutU64(&p, f.round);
          const auto kind = static_cast<JournalEventKind>(f.kind);
          const FlightReason reason = ReasonOf(f.aux_b);
          switch (kind) {
            case JournalEventKind::kSessionEnd:
              PutStr(&p, " completed=");
              PutU64(&p, f.aux_a);
              break;
            case JournalEventKind::kCheckinRejected:
            case JournalEventKind::kReportRejected:
              PutStr(&p, " reason=");
              PutStr(&p, FlightReasonName(reason));
              break;
            case JournalEventKind::kReportAccepted:
              if (f.aux_a == 1) PutStr(&p, " mode=secagg");
              break;
            case JournalEventKind::kRoundOpen:
              PutStr(&p, " goal=");
              PutU64(&p, f.aux_a);
              PutStr(&p, " min_report=");
              PutU64(&p, f.aux_b);
              break;
            case JournalEventKind::kPhase:
              PutStr(&p, " phase=");
              PutStr(&p, f.aux_a < kPhaseNames.size() ? kPhaseNames[f.aux_a]
                                                      : "unknown");
              break;
            case JournalEventKind::kRoundCommit:
              PutStr(&p, " contributors=");
              PutU64(&p, f.aux_a);
              PutStr(&p, " min_report=");
              PutU64(&p, f.aux_b);
              break;
            case JournalEventKind::kRoundAbandoned:
            case JournalEventKind::kRoundOutcome: {
              protocol::RoundOutcome outcome;
              if (OutcomeOf(f.aux_b, &outcome)) {
                PutStr(&p, " outcome=");
                PutStr(&p, protocol::RoundOutcomeName(outcome));
                if (outcome == protocol::RoundOutcome::kCommitted) {
                  PutStr(&p, " contributors=");
                  PutU64(&p, f.aux_a);
                }
              }
              if (reason != FlightReason::kNone) {
                PutStr(&p, " reason=");
                PutStr(&p, FlightReasonName(reason));
              }
              break;
            }
            default:
              break;
          }
        } else if (f.source == kFlightSpanSource) {
          PutStr(&p, f.kind == kFlightSpanBegin ? "#span begin "
                                                : "#span end ");
          PutU64(&p, f.sim_ms);
          *p++ = ' ';
          PutU64(&p, f.wall_us);
          PutStr(&p, " name_hash=");
          PutU64(&p, f.aux_a);
        } else {
          return;
        }
        *p++ = '\n';
        WriteAll(fd, buf, static_cast<std::size_t>(p - buf));
        ++written;
      });
  return written;
}

}  // namespace fl::analytics
