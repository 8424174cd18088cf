// Journal invariants on every fleet integration run: a scope guard that
// journals the FLSystem run(s) inside its scope to a temp file and, when the
// scope ends, asserts that the protocol invariants fl_analyze --check knows
// hold — zero violations and zero parse errors.
//
//   TEST(FooTest, Bar) {
//     const JournalInvariantCheck journal;  // before the FLSystem
//     FLSystem system(...);
//     ...
//   }
//
// One guard per FLSystem: two fleets in one journal reuse round and session
// ids, which the analyzer rightly flags.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "src/analytics/journal.h"
#include "src/tools/log_analyzer.h"

namespace fl::core {

class JournalInvariantCheck {
 public:
  JournalInvariantCheck()
      : path_(::testing::TempDir() + "journal_invariants." +
              std::to_string(::getpid()) + "." + std::to_string(Next()) +
              ".log") {
    EXPECT_TRUE(analytics::Journal::Global().Open(path_).ok()) << path_;
  }

  ~JournalInvariantCheck() {
    analytics::Journal::Global().Close();
    const auto report = tools::AnalyzeJournalFile(path_);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (report.ok()) {
      EXPECT_EQ(report->parse_errors, 0u);
      EXPECT_TRUE(report->violations.empty())
          << tools::RenderViolations(*report);
      EXPECT_GT(report->records, 0u);
    }
    std::remove(path_.c_str());
  }

  JournalInvariantCheck(const JournalInvariantCheck&) = delete;
  JournalInvariantCheck& operator=(const JournalInvariantCheck&) = delete;

 private:
  static int Next() {
    static int n = 0;
    return n++;
  }

  std::string path_;
};

}  // namespace fl::core
