// Plain-text serialization of instances, event traces, and schedules.
//
// Format (line-oriented, '#' comments, whitespace-separated):
//
//   busytime-instance v1
//   g <capacity>
//   job <start> <completion> [weight] [demand]     (one line per job)
//   cancel <job> <at>              (optional retraction records; job ids
//   preempt <job> <at>              index the job lines in file order)
//
//   busytime-schedule v1
//   n <jobs>
//   assign <job> <machine>                         (unscheduled jobs omitted)
//
// Job and retraction records may interleave; a retraction may name a job
// defined later in the file.  read_instance rejects retraction records
// (offline consumers must opt into the event model via read_event_trace,
// which also accepts plain instances as traces with zero retractions).
//
// Designed for experiment reproducibility: dumps are deterministic, diffs
// are reviewable, and loads validate invariants (positive lengths, g >= 1,
// ids in range) with error positions.
#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "api/solve_result.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "io/json.hpp"
#include "online/event.hpp"

namespace busytime {

/// Raised on malformed input; what() names the offending line.
class ParseError : public std::runtime_error {
 public:
  ParseError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  int line() const noexcept { return line_; }

 private:
  int line_;
};

void write_instance(std::ostream& os, const Instance& inst);
Instance read_instance(std::istream& is);

/// Event-trace forms of the same v1 container: the instance lines plus the
/// canonical cancel/preempt records.  read_event_trace accepts plain
/// instance files too (zero retractions) and reports via
/// EventTrace::dropped_cancels() how many records could never take effect.
void write_event_trace(std::ostream& os, const EventTrace& trace);
EventTrace read_event_trace(std::istream& is);

void write_schedule(std::ostream& os, const Schedule& s);
/// `expected_jobs` guards against pairing a schedule with the wrong
/// instance.
Schedule read_schedule(std::istream& is, std::size_t expected_jobs);

/// JSON round trip for unified-API results (format "busytime-result-v1"):
/// schedule assignment, cost/throughput, Observation 2.1 bounds, the
/// per-component algorithm trace, and the EngineStats counters.  Dumps are
/// deterministic (insertion-ordered keys, shortest-round-trip doubles), so
/// golden files diff cleanly; read_result_json accepts any JSON that dump
/// produced and throws std::runtime_error (with the offending key) on
/// missing or mistyped fields.
std::string result_to_json(const SolveResult& result, int indent = 2);
json::Value result_to_json_value(const SolveResult& result);
SolveResult result_from_json(const std::string& text);
void write_result_json(std::ostream& os, const SolveResult& result);
SolveResult read_result_json(std::istream& is);

/// In-memory string forms of the v1 text containers — what the wire
/// round-trip tests diff binary payloads against, and what tools use to
/// hold documents without touching disk.
std::string instance_to_string(const Instance& inst);
Instance instance_from_string(const std::string& text);
std::string event_trace_to_string(const EventTrace& trace);
EventTrace event_trace_from_string(const std::string& text);

/// File-path conveniences (throw std::runtime_error on I/O failure).
void save_event_trace(const std::string& path, const EventTrace& trace);
EventTrace load_event_trace(const std::string& path);
void save_schedule(const std::string& path, const Schedule& s);
Schedule load_schedule(const std::string& path, std::size_t expected_jobs);
void save_result_json(const std::string& path, const SolveResult& result);
SolveResult load_result_json(const std::string& path);

}  // namespace busytime
