// Sweepline primitives over half-open intervals.
//
// The event order encodes the half-open semantics once, so every consumer
// (validation, clique number, demand checking) agrees on boundary behaviour:
// at equal times, departures (-) are processed before arrivals (+), so
// touching intervals are never concurrent.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time_types.hpp"

namespace busytime {

/// Peak concurrent overlap of a set of intervals and a witness time.
struct PeakOverlap {
  int count = 0;   ///< maximum number of simultaneously active intervals
  Time time = 0;   ///< a time at which the peak is attained (0 if empty)
};

/// Maximum number of pairwise-overlapping intervals active at one time —
/// the clique number ω of the interval graph.  O(k log k).
PeakOverlap peak_overlap(const std::vector<Interval>& intervals);

/// Weighted variant: interval i contributes weights[i] while active.
/// Returns the peak total weight (used by the capacity-demand extension).
struct PeakWeight {
  std::int64_t weight = 0;
  Time time = 0;
};
PeakWeight peak_weighted_overlap(const std::vector<Interval>& intervals,
                                 const std::vector<std::int64_t>& weights);

}  // namespace busytime
