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
/// with no sort of its own, in one sweep of the memoized
/// inst.ids_by_start().  A count of each machine's jobs comes first; then
/// the sweep adds each job to len and span and to its machine's state: the
/// open busy segment, the union length closed before it and, for a machine
/// holding more than g jobs, g completion slots.  Once full, those slots
/// hold every job of the machine still running at the current start, so a
/// job on a full machine needs one slot that has ended by its start and
/// takes it; none means g + 1 jobs run at once.  A branch-free scan of the
/// g slots finds that slot: O(g) per job on such a machine, O(n * g +
/// machines) at worst.  At g = 8 it beats a min-heap of the same slots
/// (O(log g), but with unpredictable branches) by about 1.7x on 150k
/// request schedules; the heap wins only past g = 64.  Memory: one state
/// per machine id plus an arena of g slots per machine with more than g
/// jobs, at most min(n, machines * g) times; no n-sized buffer.
/// Schedule::cost / throughput, is_valid and compute_bounds stay the
/// oracles it is tested against.  Throws std::invalid_argument unless
/// s.size() == inst.size().
ScheduleMeasure measure_schedule(const Instance& inst, const Schedule& s);

/// Maximum number of jobs of `inst` concurrently active at any time point if
/// all were placed on one machine (the clique number ω of the interval
/// graph).  A single machine can process the whole instance iff ω <= g.
int max_concurrency(const Instance& inst);

}  // namespace busytime
