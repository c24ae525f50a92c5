// Slow oracles for the FirstFit kernels and the flat profile, linked by the
// tests and perf_profile (not part of libbusytime):
//
//  * MapStepProfile — the flat profile's step function in a std::map, the
//    node-based structure it replaced.  Same semantics as FlatProfile, so
//    tests/profile_test.cpp compares the two op by op and perf_profile
//    measures the layout's speedup against it.
//  * solve_first_fit_reference — the original O(n^2 log n) FirstFit, which
//    re-sweeps a machine's whole assignment on every check.
//  * solve_first_fit_map — FirstFit over MapStepProfile.
//
// Both solvers return exactly the assignment of solve_first_fit.
#pragma once

#include <map>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "core/time_types.hpp"

namespace busytime {

/// The node-based concurrency step function: breakpoint time -> count of
/// the segment starting there.
class MapStepProfile {
 public:
  bool empty() const noexcept { return steps_.empty(); }
  std::size_t segment_count() const noexcept { return steps_.size(); }
  Time busy_time() const noexcept { return busy_; }

  int peak_in(const Interval& window) const noexcept;

  bool fits(const Interval& candidate, int g) const noexcept {
    if (steps_.empty() || candidate.completion <= steps_.begin()->first ||
        candidate.start >= steps_.rbegin()->first || candidate.empty())
      return true;
    return peak_in(candidate) < g;
  }

  Time add(const Interval& iv);

  void clear() noexcept {
    steps_.clear();
    busy_ = 0;
  }

 private:
  std::map<Time, int> steps_;
  Time busy_ = 0;
};

/// The quadratic FirstFit: the equivalence oracle of solve_first_fit.
Schedule solve_first_fit_reference(const Instance& inst);

/// FirstFit over MapStepProfile: perf_profile's map-vs-flat ablation arm.
Schedule solve_first_fit_map(const Instance& inst);

}  // namespace busytime
