#include "src/analytics/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace fl::analytics {
namespace {

JournalRecord SampleRecord() {
  JournalRecord rec;
  rec.sim_time = SimTime{123456};
  rec.wall_us = 987654321;
  rec.source = JournalSource::kAggregator;
  rec.event = JournalEventKind::kReportAccepted;
  rec.device = DeviceId{42};
  rec.session = SessionId{(42ULL << 20) | 7};
  rec.round = RoundId{(3ULL << 32) | 9};
  rec.detail = "weight=40.0 mode=secagg";
  return rec;
}

TEST(JournalRecordTest, SerializeParseRoundTrip) {
  const JournalRecord rec = SampleRecord();
  const auto parsed = JournalRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sim_time, rec.sim_time);
  EXPECT_EQ(parsed->wall_us, rec.wall_us);
  EXPECT_EQ(parsed->source, rec.source);
  EXPECT_EQ(parsed->event, rec.event);
  EXPECT_EQ(parsed->device.value, rec.device.value);
  EXPECT_EQ(parsed->session.value, rec.session.value);
  EXPECT_EQ(parsed->round.value, rec.round.value);
  EXPECT_EQ(parsed->detail, rec.detail);
}

TEST(JournalRecordTest, DetailEscapesNewlinesAndBackslashes) {
  JournalRecord rec = SampleRecord();
  rec.detail = "reason=multi\nline \\with\\ slashes";
  const std::string line = rec.Serialize();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = JournalRecord::Parse(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->detail, rec.detail);
}

TEST(JournalRecordTest, EmptyDetailRoundTrips) {
  JournalRecord rec = SampleRecord();
  rec.detail.clear();
  const auto parsed = JournalRecord::Parse(rec.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->detail.empty());
}

TEST(JournalRecordTest, ParseRejectsMalformedLines) {
  EXPECT_FALSE(JournalRecord::Parse("").ok());
  EXPECT_FALSE(JournalRecord::Parse("12 34").ok());
  EXPECT_FALSE(JournalRecord::Parse("x 0 device checkin 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 nobody checkin 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 device no_such_event 1 2 0").ok());
  EXPECT_FALSE(JournalRecord::Parse("0 0 device checkin bad 2 0").ok());
}

TEST(JournalNamesTest, AllSourcesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(JournalSource::kFrontend); ++i) {
    const auto s = static_cast<JournalSource>(i);
    const auto back = ParseJournalSource(JournalSourceName(s));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(ParseJournalSource("martian").ok());
}

TEST(JournalNamesTest, AllEventsRoundTrip) {
  for (int i = 0; i <= static_cast<int>(JournalEventKind::kSimRoundComplete);
       ++i) {
    const auto k = static_cast<JournalEventKind>(i);
    const auto back = ParseJournalEvent(JournalEventName(k));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, k);
  }
}

TEST(JournalNamesTest, SessionEventMappingMirrorsTableOne) {
  for (int i = 0; i <= static_cast<int>(SessionEvent::kError); ++i) {
    const auto se = static_cast<SessionEvent>(i);
    const JournalEventKind k = JournalEventForSession(se);
    SessionEvent back;
    ASSERT_TRUE(SessionEventForJournal(k, &back));
    EXPECT_EQ(back, se);
  }
  SessionEvent unused;
  EXPECT_FALSE(
      SessionEventForJournal(JournalEventKind::kSessionEnd, &unused));
  EXPECT_FALSE(
      SessionEventForJournal(JournalEventKind::kRoundCommit, &unused));
}

TEST(DetailFieldTest, ExtractsKeysFromTokenList) {
  const std::string detail = "reason=late goal=12 note=free form tail";
  std::string v;
  ASSERT_TRUE(DetailField(detail, "reason", &v));
  EXPECT_EQ(v, "late");
  ASSERT_TRUE(DetailField(detail, "note", &v));
  EXPECT_EQ(v, "free");  // values run to the next space
  EXPECT_FALSE(DetailField(detail, "missing", &v));
  EXPECT_FALSE(DetailField(detail, "reas", &v));  // no prefix matches
  EXPECT_EQ(DetailInt(detail, "goal", -1), 12);
  EXPECT_EQ(DetailInt(detail, "reason", -1), -1);  // non-numeric
  EXPECT_EQ(DetailInt(detail, "missing", 7), 7);
}

TEST(JournalSinkTest, WritesHeaderAndRecordsAndGatesEnabled) {
  const std::string path = ::testing::TempDir() + "journal_sink_test.log";
  Journal& journal = Journal::Global();
  ASSERT_FALSE(JournalEnabled());

  ASSERT_TRUE(journal.Open(path).ok());
  EXPECT_TRUE(JournalEnabled());
  EXPECT_TRUE(journal.is_open());
  EXPECT_FALSE(journal.Open(path).ok());  // double-open refused

  journal.Append({.at = SimTime{5},
                  .kind = JournalEventKind::kCheckin,
                  .device = DeviceId{1},
                  .session = SessionId{100}});
  journal.Append({.at = SimTime{9},
                  .source = JournalSource::kSelector,
                  .kind = JournalEventKind::kCheckinAccepted,
                  .device = DeviceId{1},
                  .session = SessionId{100}});
  EXPECT_EQ(journal.events_written(), 2u);
  journal.Close();
  EXPECT_FALSE(JournalEnabled());
  journal.Close();  // idempotent

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, Journal::kHeader);
  std::size_t records = 0;
  while (std::getline(in, line)) {
    const auto rec = JournalRecord::Parse(line);
    ASSERT_TRUE(rec.ok()) << line;
    ++records;
  }
  EXPECT_EQ(records, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fl::analytics
