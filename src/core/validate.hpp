// Schedule validity checking.
//
// A schedule is valid iff every machine processes at most g jobs at any time
// (Section 2).  With half-open intervals this is a sweepline over
// (+1 at start, -1 at completion) events, processing departures before
// arrivals at equal times.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/bounds.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace busytime {

/// Description of a single capacity violation, for diagnostics.
struct Violation {
  MachineId machine = 0;
  Time time = 0;       ///< earliest time at which the capacity is exceeded
  int concurrency = 0; ///< number of concurrent jobs there (> g)
  std::string to_string() const;
};

/// Returns the first violation found, or nullopt if the schedule is valid.
/// Ignores unscheduled jobs (partial schedules are fine).  O(n log n).
std::optional<Violation> find_violation(const Instance& inst, const Schedule& s);

/// True iff `s` is a valid (partial) schedule for `inst`.
bool is_valid(const Instance& inst, const Schedule& s);

/// What a result reports about its schedule, measured in one pass.
struct ScheduleMeasure {
  Time cost = 0;                ///< Schedule::cost
  std::int64_t throughput = 0;  ///< Schedule::throughput
  bool valid = false;           ///< is_valid
  CostBounds bounds;            ///< compute_bounds of the instance
};

/// Cost, throughput, validity and Observation 2.1 bounds of `s` on `inst`
/// with no sort of its own: one sweep of the memoized inst.ids_by_start()
/// gives len and span and, as a counting sort, buckets the scheduled jobs
/// by machine already start-sorted; each bucket then gives its machine's
/// union length and, through a min-heap of at most g completion times, the
/// <= g check.  O(n log g + machines).  Schedule::cost / throughput,
/// is_valid and compute_bounds stay the oracles it is tested against.
/// Throws std::invalid_argument unless s.size() == inst.size().
ScheduleMeasure measure_schedule(const Instance& inst, const Schedule& s);

/// Maximum number of jobs of `inst` concurrently active at any time point if
/// all were placed on one machine (the clique number ω of the interval
/// graph).  A single machine can process the whole instance iff ω <= g.
int max_concurrency(const Instance& inst);

}  // namespace busytime
