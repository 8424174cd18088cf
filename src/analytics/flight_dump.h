// The journal projection and the journal-typed view over the telemetry
// flight recorder. fl_telemetry keeps the rings protocol-agnostic (opaque u8
// source/kind, three aux words); this header owns the encoding: each
// journaled Event is one flight record, and the journal writer and both
// dumps render Events through FormatJournalLine, so a crash dump and the
// journal cannot drift.
//
// Emit() (analytics/emit.h) records every journaled kind but kSim's here
// while the recorder is on, so the last kSlotsPerThread events per thread
// exist even when nothing else is recording.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/analytics/journal.h"
#include "src/telemetry/flight_recorder.h"

namespace fl::analytics {

// The detail text of a reason code, e.g. "late", "waiting pool full".
const char* FlightReasonName(FlightReason r);

// Round codec names ("dense", "topk25+int8", "fp16+keep25") interned to a
// small id so the fixed-field record, and the flight ring, can carry them.
// Id 0 (and a full table) renders as "". CodecName is async-signal-safe.
std::uint8_t InternCodec(std::string_view name);
const char* CodecName(std::uint8_t id);

// The projection: renders `e` as one journal line, no trailing newline:
//   <sim_ms> <wall_us> <source> <event> <device> <session> <round> [detail]
// Async-signal-safe (no allocation, no locking); `out` must hold
// kMaxJournalLine bytes. Returns the line length.
inline constexpr std::size_t kMaxJournalLine = 384;
std::size_t FormatJournalLine(const Event& e, std::int64_t wall_us,
                              char* out);

// Writes `e` to this thread's ring. Callers check FlightRecorderEnabled().
// The ring keeps min_report to 16 bits and bytes to 40 bits.
void RecordFlight(const Event& e);

// Decodes one flight record back into the Event it was recorded from.
// Returns false for non-journal records (span begin/end from the tracer,
// unknown codes).
bool EventFromFlight(const telemetry::FlightRecord& rec, Event* out);

// Every valid slot, seq-ordered, rendered as `#fl-journal v1` text. Span
// records become `#span ...` comment lines (parsers skip '#'). Allocates;
// for the in-process bundle path.
std::string FlightDumpText();

// Async-signal-safe dump: no allocation, no locking, records in arbitrary
// order (fl_analyze sorts by sim time on ingest). Writes directly to `fd`
// with write(2). Returns the number of records written.
std::size_t FlightDumpToFd(int fd);

}  // namespace fl::analytics
