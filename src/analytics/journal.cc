#include "src/analytics/journal.h"

#include <array>
#include <charconv>
#include <cinttypes>

#include "src/analytics/flight_dump.h"  // FormatJournalLine
#include "src/telemetry/telemetry.h"       // WallMicros

namespace fl::analytics {
namespace {

// Flush the in-memory buffer to disk once it crosses this size; large enough
// that a fleet-sim round costs a handful of fwrite calls, small enough that
// a crash loses little.
constexpr std::size_t kFlushThreshold = 64 * 1024;

struct NameEntry {
  const char* name;
};

constexpr std::array<NameEntry, 7> kSourceNames = {{
    {"device"},
    {"selector"},
    {"master"},
    {"aggregator"},
    {"coordinator"},
    {"sim"},
    {"frontend"},
}};

constexpr std::array<NameEntry, 21> kEventNames = {{
    {"checkin"},
    {"plan_downloaded"},
    {"train_start"},
    {"train_complete"},
    {"upload_start"},
    {"upload_complete"},
    {"upload_rejected"},
    {"interrupted"},
    {"error"},
    {"session_end"},
    {"checkin_accepted"},
    {"checkin_rejected"},
    {"round_open"},
    {"phase"},
    {"report_accepted"},
    {"report_rejected"},
    {"round_commit"},
    {"round_abandoned"},
    {"round_outcome"},
    {"sim_round_start"},
    {"sim_round_complete"},
}};

void AppendEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\\': out += "\\\\"; break;
      default: out += c;
    }
  }
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out += (s[i] == 'n') ? '\n' : s[i];
    } else {
      out += s[i];
    }
  }
  return out;
}

// Splits the next space-delimited token off `rest`; returns false when
// `rest` is empty.
bool NextToken(std::string_view& rest, std::string_view* token) {
  while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (rest.empty()) return false;
  const std::size_t end = rest.find(' ');
  *token = rest.substr(0, end);
  rest.remove_prefix(end == std::string_view::npos ? rest.size() : end);
  return true;
}

bool ParseInt64(std::string_view token, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

bool ParseUint64(std::string_view token, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), *out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

}  // namespace

const char* JournalSourceName(JournalSource s) {
  const auto i = static_cast<std::size_t>(s);
  return i < kSourceNames.size() ? kSourceNames[i].name : "unknown";
}

Result<JournalSource> ParseJournalSource(std::string_view name) {
  for (std::size_t i = 0; i < kSourceNames.size(); ++i) {
    if (name == kSourceNames[i].name) {
      return static_cast<JournalSource>(i);
    }
  }
  return InvalidArgumentError("unknown journal source: " + std::string(name));
}

const char* JournalEventName(JournalEventKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kEventNames.size() ? kEventNames[i].name : "unknown";
}

Result<JournalEventKind> ParseJournalEvent(std::string_view name) {
  for (std::size_t i = 0; i < kEventNames.size(); ++i) {
    if (name == kEventNames[i].name) {
      return static_cast<JournalEventKind>(i);
    }
  }
  return InvalidArgumentError("unknown journal event: " + std::string(name));
}

JournalEventKind JournalEventForSession(SessionEvent e) {
  // The first nine JournalEventKind values mirror SessionEvent in order.
  return static_cast<JournalEventKind>(static_cast<std::uint8_t>(e));
}

bool SessionEventForJournal(JournalEventKind k, SessionEvent* out) {
  const auto i = static_cast<std::uint8_t>(k);
  if (i > static_cast<std::uint8_t>(SessionEvent::kError)) return false;
  *out = static_cast<SessionEvent>(i);
  return true;
}

std::string JournalRecord::Serialize() const {
  char head[160];
  const int n = std::snprintf(
      head, sizeof(head),
      "%" PRId64 " %" PRId64 " %s %s %" PRIu64 " %" PRIu64 " %" PRIu64,
      sim_time.millis, wall_us, JournalSourceName(source),
      JournalEventName(event), device.value, session.value, round.value);
  std::string out(head, static_cast<std::size_t>(n));
  if (!detail.empty()) {
    out += ' ';
    AppendEscaped(out, detail);
  }
  return out;
}

Result<JournalRecord> JournalRecord::Parse(std::string_view line) {
  JournalRecord rec;
  std::string_view rest = line;
  std::string_view tok;

  if (!NextToken(rest, &tok) || !ParseInt64(tok, &rec.sim_time.millis)) {
    return InvalidArgumentError("journal line: bad sim_time");
  }
  if (!NextToken(rest, &tok) || !ParseInt64(tok, &rec.wall_us)) {
    return InvalidArgumentError("journal line: bad wall_us");
  }
  if (!NextToken(rest, &tok)) {
    return InvalidArgumentError("journal line: missing source");
  }
  FL_ASSIGN_OR_RETURN(rec.source, ParseJournalSource(tok));
  if (!NextToken(rest, &tok)) {
    return InvalidArgumentError("journal line: missing event");
  }
  FL_ASSIGN_OR_RETURN(rec.event, ParseJournalEvent(tok));
  if (!NextToken(rest, &tok) || !ParseUint64(tok, &rec.device.value)) {
    return InvalidArgumentError("journal line: bad device id");
  }
  if (!NextToken(rest, &tok) || !ParseUint64(tok, &rec.session.value)) {
    return InvalidArgumentError("journal line: bad session id");
  }
  if (!NextToken(rest, &tok) || !ParseUint64(tok, &rec.round.value)) {
    return InvalidArgumentError("journal line: bad round id");
  }
  if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
  if (!rest.empty()) rec.detail = Unescape(rest);
  return rec;
}

bool DetailField(std::string_view detail, std::string_view key,
                 std::string* value) {
  std::string_view rest = detail;
  std::string_view tok;
  while (NextToken(rest, &tok)) {
    if (tok.size() > key.size() + 1 && tok.substr(0, key.size()) == key &&
        tok[key.size()] == '=') {
      value->assign(tok.substr(key.size() + 1));
      return true;
    }
  }
  return false;
}

std::int64_t DetailInt(std::string_view detail, std::string_view key,
                       std::int64_t fallback) {
  std::string v;
  if (!DetailField(detail, key, &v)) return fallback;
  std::int64_t out = 0;
  if (!ParseInt64(v, &out)) return fallback;
  return out;
}

Journal& Journal::Global() {
  static Journal* journal = new Journal();
  return *journal;
}

Journal::~Journal() { Close(); }

Status Journal::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    return FailedPreconditionError("journal already open");
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return UnavailableError("cannot open journal file: " + path);
  }
  file_ = f;
  buffer_.clear();
  buffer_ += kHeader;
  buffer_ += '\n';
  events_written_.store(0, std::memory_order_relaxed);
  bytes_written_.store(buffer_.size(), std::memory_order_relaxed);
  journal_internal::g_enabled.store(true, std::memory_order_relaxed);
  return Status::Ok();
}

bool Journal::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_ != nullptr;
}

void Journal::Append(const Event& e) {
  char line[kMaxJournalLine + 1];
  std::size_t n = FormatJournalLine(e, telemetry::WallMicros(), line);
  line[n++] = '\n';
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  buffer_.append(line, n);
  events_written_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(n, std::memory_order_relaxed);
  if (buffer_.size() >= kFlushThreshold) FlushLocked();
}

void Journal::FlushLocked() {
  if (file_ == nullptr || buffer_.empty()) return;
  std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  std::fflush(file_);
  buffer_.clear();
}

void Journal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

bool Journal::FlushBestEffort() {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  FlushLocked();
  return true;
}

void Journal::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  FlushLocked();
  std::fclose(file_);
  file_ = nullptr;
  journal_internal::g_enabled.store(false, std::memory_order_relaxed);
}

}  // namespace fl::analytics
