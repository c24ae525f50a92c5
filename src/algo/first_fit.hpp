// FirstFit for 1-D instances — the prior-work baseline of Flammini et al.
// [13], a 4-approximation for general inputs.
//
// Jobs are considered in non-increasing length order; each goes to the
// first machine that can take it.  In one dimension "machine can take it"
// reduces to "peak concurrency stays <= g" because interval graphs are
// perfect (χ = ω), so no explicit thread bookkeeping is needed.
//
// Two exact kernels answer "does machine m take this job?", and
// solve_first_fit picks one per call from the instance alone:
//
//  * the count grid: one std::uint8_t concurrency count per (machine, time
//    offset in the instance's hull).  A check is an early-exit scan of the
//    job's cells, an add increments them.  Taken iff every job has positive
//    length, g <= 255 and rows · W <= 128 · n, where W is the hull width,
//    P the peak concurrency and rows = floor(2P/g) + 1 — a bound on the
//    machines FirstFit can open (see first_fit.cpp), so the grid is
//    allocated once.
//  * the flat profile (`algo/profile.hpp`): one breakpoint step function
//    per machine, the only kernel that holds wide-time instances.
//
// Both run inside one FirstFit loop (the same busy-window hull prefilter,
// the same machine order), so the choice moves only time: the schedule and
// every FirstFitStats field except `grid` are the same either way.
#pragma once

#include <cstdint>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace busytime {

/// Deterministic hot-path counters of one solve_first_fit run.  Every field
/// is a function of the instance alone (no timing, no thread count), so the
/// perf_profile bench can gate them across machines.
struct FirstFitStats {
  std::uint64_t placements = 0;      ///< jobs assigned
  std::uint64_t window_accepts = 0;  ///< placements resolved by the busy-window
                                     ///< hull scan alone (no machine checked)
  std::uint64_t profile_checks = 0;  ///< per-machine fit checks issued (flat
                                     ///< profile or grid row, one per machine)
  std::uint64_t machines = 0;        ///< machines opened
  std::uint64_t segments = 0;        ///< distinct job endpoints per machine,
                                     ///< summed (the flat profiles' final
                                     ///< breakpoints, whichever kernel ran)
  std::uint64_t grid = 0;            ///< 1 when the count grid solved the call
};

/// FirstFit schedule (full, valid).
///
/// Each job first runs a branchless block scan over the machines' flat
/// busy-window hulls — machines busy only elsewhere in time are rejected
/// eight at a time, and in FirstFit order the first such machine accepts
/// the job outright — then checks only the machines whose hulls overlap it,
/// on whichever kernel the instance takes (see the file comment).
/// Near-linear on trace workloads; produces exactly the same assignment as
/// the quadratic reference FirstFit on every input.
Schedule solve_first_fit(const Instance& inst);

/// As above, also reporting the deterministic hot-path counters (hull-scan
/// accepts, machine checks, machines, final segments, kernel) for the
/// perf_profile bench and tests.
Schedule solve_first_fit(const Instance& inst, FirstFitStats* stats);

/// The flat-profile kernel alone, whatever the instance.  For the
/// equivalence tests and perf_profile only; no option selects it.
Schedule solve_first_fit_flat(const Instance& inst, FirstFitStats* stats = nullptr);

/// The count-grid kernel whenever its hard preconditions hold (every job
/// has positive length, g <= 255, the hull width fits in int32), skipping
/// the cost rule — so it allocates rows · W bytes however wide the hull;
/// otherwise the flat profile runs and `stats->grid` reads 0.  For the
/// equivalence tests only; no option selects it.
Schedule solve_first_fit_grid(const Instance& inst, FirstFitStats* stats = nullptr);

}  // namespace busytime
