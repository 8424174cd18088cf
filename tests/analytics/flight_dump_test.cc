// Flight dump: the journal-typed view over the recorder rings — reason-code
// round-trips, the Event encoding, the two dump paths (allocating text vs
// async-signal-safe fd) producing parseable, equivalent journals, and the
// journal and the dump rendering every event through one projection.
#include "src/analytics/flight_dump.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/analytics/emit.h"

#include "src/telemetry/flight_recorder.h"

namespace fl::analytics {
namespace {

// The journal record a flight slot renders as.
bool JournalRecordFromFlight(const telemetry::FlightRecord& f,
                             JournalRecord* out) {
  Event e;
  if (!EventFromFlight(f, &e)) return false;
  char line[kMaxJournalLine];
  auto rec = JournalRecord::Parse(
      std::string_view(line, FormatJournalLine(e, 0, line)));
  if (!rec.ok()) return false;
  *out = std::move(rec).value();
  return true;
}

class FlightDumpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::FlightRecorder::Global().Clear();
    telemetry::SetFlightRecorderEnabled(true);
  }
  void TearDown() override { telemetry::FlightRecorder::Global().Clear(); }
};

// Each code's detail string names it alone, so journal and flight text map
// back to the code.
TEST_F(FlightDumpTest, ReasonNamesRoundTrip) {
  std::set<std::string> names;
  for (int i = 1; i <= static_cast<int>(FlightReason::kOther); ++i) {
    const std::string name = FlightReasonName(static_cast<FlightReason>(i));
    EXPECT_FALSE(name.empty()) << i;
    EXPECT_TRUE(names.insert(name).second) << name;
  }
  EXPECT_STREQ(FlightReasonName(FlightReason::kLate), "late");
  EXPECT_STREQ(FlightReasonName(FlightReason::kWaitingPoolFull),
               "waiting pool full");
}

// The loss reasons render the text fl_analyze reports as the abort reason,
// counts included.
TEST_F(FlightDumpTest, OutcomeReasonPackingDecodesInDetail) {
  const struct {
    protocol::RoundOutcome outcome;
    FlightReason reason;
    const char* detail;
  } cases[] = {
      {protocol::RoundOutcome::kAbandonedReporting,
       FlightReason::kBelowMinReports,
       "outcome=abandoned_reporting reason=only 2 reports; need 4"},
      {protocol::RoundOutcome::kAbandonedSelection,
       FlightReason::kSelectionTimeout,
       "outcome=abandoned_selection reason=selection timeout with 2 devices"},
      {protocol::RoundOutcome::kAbandonedReporting,
       FlightReason::kMasterEndOfLife,
       "outcome=abandoned_reporting reason=master end of life before "
       "completion"},
      {protocol::RoundOutcome::kFailed, FlightReason::kMasterLost,
       "outcome=failed reason=master_lost"},
  };
  for (const auto& c : cases) {
    Emit({.at = SimTime{500},
          .source = JournalSource::kCoordinator,
          .kind = JournalEventKind::kRoundOutcome,
          .reason = c.reason,
          .outcome = c.outcome,
          .count = 2,
          .min_report = 4,
          .round = RoundId{7}});
  }
  const auto records = telemetry::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), std::size(cases));
  for (std::size_t i = 0; i < records.size(); ++i) {
    JournalRecord rec;
    ASSERT_TRUE(JournalRecordFromFlight(records[i], &rec));
    EXPECT_EQ(rec.event, JournalEventKind::kRoundOutcome);
    EXPECT_EQ(rec.round.value, 7u);
    EXPECT_EQ(rec.detail, cases[i].detail);
  }
}

TEST_F(FlightDumpTest, CommittedOutcomeCarriesContributors) {
  Emit({.at = SimTime{900},
        .source = JournalSource::kCoordinator,
        .kind = JournalEventKind::kRoundOutcome,
        .outcome = protocol::RoundOutcome::kCommitted,
        .count = 25,
        .round = RoundId{3}});
  const auto records = telemetry::FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  JournalRecord rec;
  ASSERT_TRUE(JournalRecordFromFlight(records[0], &rec));
  EXPECT_EQ(rec.detail, "outcome=committed contributors=25");
}

TEST_F(FlightDumpTest, SpanRecordsAreNotJournalRecords) {
  telemetry::FlightRecord span;
  span.source = 250;  // kFlightSpanSource (trace.cc)
  span.kind = 1;
  JournalRecord rec;
  EXPECT_FALSE(JournalRecordFromFlight(span, &rec));
}

TEST_F(FlightDumpTest, DumpTextParsesBackAsJournalRecords) {
  Emit({.at = SimTime{1000},
        .source = JournalSource::kMaster,
        .kind = JournalEventKind::kRoundOpen,
        .count = 20,
        .min_report = 12,
        .round = RoundId{4}});
  Emit({.at = SimTime{1500},
        .source = JournalSource::kAggregator,
        .kind = JournalEventKind::kReportRejected,
        .reason = FlightReason::kLate,
        .device = DeviceId{8},
        .session = SessionId{80},
        .round = RoundId{4}});
  Emit({.at = SimTime{2000},
        .kind = JournalEventKind::kTrainStart,
        .device = DeviceId{8},
        .session = SessionId{80},
        .round = RoundId{4}});

  const std::string text = FlightDumpText();
  EXPECT_EQ(text.rfind(Journal::kHeader, 0), 0u);  // header first

  std::vector<JournalRecord> parsed;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line.front() == '#') continue;
    auto rec = JournalRecord::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    parsed.push_back(std::move(*rec));
  }
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].event, JournalEventKind::kRoundOpen);
  EXPECT_EQ(parsed[0].detail, "goal=20 min_report=12");
  EXPECT_EQ(parsed[1].event, JournalEventKind::kReportRejected);
  EXPECT_EQ(parsed[1].detail, "reason=late");
  EXPECT_EQ(parsed[2].event, JournalEventKind::kTrainStart);
  EXPECT_EQ(parsed[2].round.value, 4u);
}

TEST_F(FlightDumpTest, FdDumpMatchesTextDumpRecordForRecord) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    Emit({.at = SimTime{static_cast<std::int64_t>(i)},
          .kind = JournalEventKind::kCheckin,
          .device = DeviceId{i},
          .session = SessionId{i + 1}});
  }
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  const std::size_t written = FlightDumpToFd(fileno(tmp));
  EXPECT_EQ(written, 50u);

  std::rewind(tmp);
  std::string fd_text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) {
    fd_text.append(buf, n);
  }
  std::fclose(tmp);

  // The fd dump is unordered; compare as line sets against the sorted text
  // dump (wall_us is identical per record, so lines match byte-for-byte).
  std::vector<std::string> want_lines, got_lines;
  auto split = [](const std::string& text, std::vector<std::string>* out) {
    std::size_t pos = 0;
    while (pos < text.size()) {
      const std::size_t eol = text.find('\n', pos);
      const std::string line = text.substr(pos, eol - pos);
      pos = eol == std::string::npos ? text.size() : eol + 1;
      if (!line.empty() && line.front() != '#') out->push_back(line);
    }
  };
  split(FlightDumpText(), &want_lines);
  split(fd_text, &got_lines);
  std::sort(want_lines.begin(), want_lines.end());
  std::sort(got_lines.begin(), got_lines.end());
  EXPECT_EQ(got_lines, want_lines);
}

TEST_F(FlightDumpTest, RecordFlightHonorsTheGate) {
  telemetry::SetFlightRecorderEnabled(false);
  Emit({.at = SimTime{1}, .kind = JournalEventKind::kCheckin});
  EXPECT_TRUE(telemetry::FlightRecorder::Global().Snapshot().empty());
  telemetry::SetFlightRecorderEnabled(true);
  Emit({.at = SimTime{2}, .kind = JournalEventKind::kCheckin});
  EXPECT_EQ(telemetry::FlightRecorder::Global().Snapshot().size(), 1u);
}

// Parsed records of a `#fl-journal v1` text, wall_us zeroed.
std::vector<std::string> CanonicalRecords(std::istream& in) {
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() == '#') continue;
    auto rec = JournalRecord::Parse(line);
    EXPECT_TRUE(rec.ok()) << line;
    if (!rec.ok()) continue;
    rec->wall_us = 0;
    out.push_back(rec->Serialize());
  }
  return out;
}

// One event of every kind, emitted with both the journal and the recorder
// on: the journal file and the flight dump must agree record for record,
// because both render through FormatJournalLine. Any detail that reaches
// one and not the other breaks this.
TEST_F(FlightDumpTest, JournalAndFlightDumpShareOneProjection) {
  const std::uint8_t codec = InternCodec("topk25+int8");
  std::vector<Event> events;
  for (int k = 0; k <= static_cast<int>(JournalEventKind::kServerError); ++k) {
    Event e{.at = SimTime{1000 + k},
            .source = JournalSource::kAggregator,
            .kind = static_cast<JournalEventKind>(k),
            .reason = FlightReason::kLate,
            .outcome = protocol::RoundOutcome::kAbandonedReporting,
            .codec = codec,
            .count = 3,
            .min_report = 7,
            .device = DeviceId{40u + static_cast<unsigned>(k)},
            .session = SessionId{900},
            .round = RoundId{(5ull << 32) | 2},
            .bytes = 123456789};
    switch (e.kind) {
      case JournalEventKind::kRoundAbandoned:
        e.reason = FlightReason::kSelectionTimeout;
        break;
      case JournalEventKind::kRoundOutcome:
        e.reason = FlightReason::kBelowMinReports;
        break;
      case JournalEventKind::kSessionEnd:
      case JournalEventKind::kPhase:
        e.count = 1;
        break;
      default:
        break;
    }
    events.push_back(e);
  }
  // The two report_accepted shapes and a committed outcome.
  Event secagg = events[static_cast<int>(JournalEventKind::kReportAccepted)];
  secagg.count = 1;
  Event committed = events[static_cast<int>(JournalEventKind::kRoundOutcome)];
  committed.outcome = protocol::RoundOutcome::kCommitted;
  committed.reason = FlightReason::kNone;
  events.push_back(secagg);
  events.push_back(committed);

  const std::string path =
      ::testing::TempDir() + "flight_projection." +
      std::to_string(::getpid()) + ".log";
  ASSERT_TRUE(Journal::Global().Open(path).ok());
  for (const Event& e : events) Emit(e);
  Journal::Global().Close();

  std::ifstream journal_in(path);
  const std::vector<std::string> journal = CanonicalRecords(journal_in);
  std::istringstream dump_in(FlightDumpText());
  const std::vector<std::string> dump = CanonicalRecords(dump_in);
  std::remove(path.c_str());

  // Every journaled kind plus the two extra shapes; no stats-only kind.
  EXPECT_EQ(journal.size(),
            static_cast<std::size_t>(JournalEventKind::kSimRoundComplete) + 3);
  EXPECT_EQ(journal, dump);
}

// The modeling simulator's events are journal-only: its thread holds no
// flight ring.
TEST_F(FlightDumpTest, SimEventsSkipTheRing) {
  const telemetry::FlightRecorder& recorder =
      telemetry::FlightRecorder::Global();
  const std::uint64_t before = recorder.total_records();
  Emit({.at = SimTime{5},
        .source = JournalSource::kSim,
        .kind = JournalEventKind::kSimRoundStart,
        .count = 100,
        .round = RoundId{1}});
  EXPECT_EQ(recorder.total_records(), before);
  Emit({.at = SimTime{6},
        .source = JournalSource::kCoordinator,
        .kind = JournalEventKind::kPhase,
        .round = RoundId{1}});
  EXPECT_EQ(recorder.total_records(), before + 1);
}

}  // namespace
}  // namespace fl::analytics
