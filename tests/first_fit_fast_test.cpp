// The near-linear FirstFit (flat step-function profiles or the count grid,
// behind the O(1) window rejection) must be a pure data-structure
// optimization: identical assignments — hence identical costs — to the
// quadratic reference on every input family, through either kernel.  The
// kernel rule and the grid's machine cap are pinned here too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "algo/first_fit.hpp"
#include "core/validate.hpp"
#include "intervalgraph/sweepline.hpp"
#include "support/first_fit_checks.hpp"
#include "support/first_fit_oracles.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

TEST(FirstFitFast, MatchesReferenceOnRandomFamilies) {
  GenParams p;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const int g : {1, 2, 5, 255}) {
      p.n = 60;
      p.g = g;
      p.seed = seed * 31;
      expect_kernels_match_reference(gen_general(p));
      expect_kernels_match_reference(gen_clique(p));
      expect_kernels_match_reference(gen_proper(p));
      expect_kernels_match_reference(gen_one_sided(p));
    }
  }
}

TEST(FirstFitFast, MatchesReferenceOnTraceWorkloads) {
  // The workload class the optimization targets: long horizon, machines
  // busy in disjoint eras.
  TraceParams p;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int g : {4, 255}) {
      p.n = 400;
      p.g = g;
      p.seed = seed;
      p.diurnal = (seed % 2) == 0;
      expect_kernels_match_reference(gen_trace(p));
    }
  }
}

TEST(FirstFitFast, HandlesDegenerateShapes) {
  // Identical jobs saturating machines exactly.
  expect_kernels_match_reference(
      Instance({Job(0, 10), Job(0, 10), Job(0, 10), Job(0, 10)}, 2));
  // Touching (non-overlapping) half-open intervals share a machine freely.
  expect_kernels_match_reference(
      Instance({Job(0, 5), Job(5, 10), Job(10, 15), Job(0, 15)}, 1));
  // Nested pyramid.
  expect_kernels_match_reference(
      Instance({Job(0, 100), Job(10, 90), Job(20, 80), Job(30, 70)}, 2));
  // Single job, and one on a negative origin.
  expect_kernels_match_reference(Instance({Job(3, 4)}, 1));
  expect_kernels_match_reference(Instance({Job(-7, -2), Job(-5, 9)}, 1));
  // Jobs longer than a 32-cell block, saturated only at their far end.
  expect_kernels_match_reference(
      Instance({Job(0, 100), Job(60, 100), Job(99, 100), Job(1, 100)}, 2));
}

TEST(FirstFitFast, TraceScanStaysLocal) {
  // Sanity guard for the performance claim: on a long-horizon trace the
  // fast path must comfortably handle sizes where the quadratic reference
  // would already be painful.  (No timing asserts — just completion and
  // validity at a size CI can afford.)
  TraceParams p;
  p.n = 20000;
  p.g = 8;
  p.seed = 42;
  const Instance trace = gen_trace(p);
  const Schedule s = solve_first_fit(trace);
  EXPECT_TRUE(is_valid(trace, s));
  EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(trace.size()));
}

/// The kernel solve_first_fit picked for `inst` (1 = count grid).
std::uint64_t kernel_of(const Instance& inst) {
  FirstFitStats stats;
  const Schedule s = solve_first_fit(inst, &stats);
  EXPECT_EQ(s.assignment(), solve_first_fit_reference(inst).assignment());
  return stats.grid;
}

TEST(FirstFitKernels, GridTakesExactly128CellsPerJob) {
  // Four touching jobs: P = 1, so g = 2 gives rows = 2, and a 256-wide
  // hull is 512 = 128 · 4 cells.  One more time unit is 514 cells.
  EXPECT_EQ(kernel_of(Instance({Job(0, 64), Job(64, 128), Job(128, 192),
                                Job(192, 256)}, 2)),
            1u);
  EXPECT_EQ(kernel_of(Instance({Job(0, 64), Job(64, 128), Job(128, 192),
                                Job(192, 257)}, 2)),
            0u);
  // The same boundary with the peak in play: P = 2 and g = 1 give
  // rows = 5, so a 51-wide hull for two jobs is 255 <= 256 cells and a
  // 52-wide one is 260.
  EXPECT_EQ(kernel_of(Instance({Job(0, 51), Job(10, 20)}, 1)), 1u);
  EXPECT_EQ(kernel_of(Instance({Job(0, 52), Job(10, 20)}, 1)), 0u);
}

TEST(FirstFitKernels, GAbove255TakesFlatProfile) {
  const std::vector<Job> jobs = {Job(0, 10), Job(2, 12), Job(4, 6)};
  EXPECT_EQ(kernel_of(Instance(jobs, 255)), 1u);
  EXPECT_EQ(kernel_of(Instance(jobs, 256)), 0u);
  FirstFitStats forced;
  solve_first_fit_grid(Instance(jobs, 256), &forced);
  EXPECT_EQ(forced.grid, 0u);
}

TEST(FirstFitKernels, ZeroLengthJobTakesFlatProfile) {
#ifndef NDEBUG
  GTEST_SKIP() << "the Instance constructor asserts positive lengths";
#else
  // Built through the Release API only.  The empty job fits every machine,
  // so it keeps machine 0, as it always has.
  const Instance inst({Job(0, 10), Job(5, 5), Job(0, 10)}, 1);
  EXPECT_EQ(kernel_of(inst), 0u);
  FirstFitStats forced;
  const Schedule s = solve_first_fit_grid(inst, &forced);
  EXPECT_EQ(forced.grid, 0u);
  EXPECT_EQ(s.machine_of(1), 0);
  EXPECT_EQ(s.assignment(), solve_first_fit_reference(inst).assignment());
#endif
}

TEST(FirstFitKernels, EndpointsNearInt64LimitsTakeFlatProfile) {
  // The hull is 2^63 wide: computing it in Time would overflow.
  constexpr Time kFar = Time{1} << 62;
  const Instance inst({Job(-kFar, -kFar + 10), Job(kFar - 10, kFar),
                       Job(-kFar, -kFar + 5), Job(kFar - 7, kFar - 2)},
                      1);
  EXPECT_EQ(kernel_of(inst), 0u);
  FirstFitStats forced;
  const Schedule s = solve_first_fit_grid(inst, &forced);
  EXPECT_EQ(forced.grid, 0u);
  EXPECT_EQ(s.assignment(), solve_first_fit_reference(inst).assignment());
}

TEST(FirstFitKernels, MachinesStayWithinGridRowsOnEveryFamily) {
  // FirstFit never opens more than floor(2P/g) + 1 machines (the grid's
  // rows), and solve_first_fit takes the grid exactly when the rule says.
  std::uint64_t grid_solves = 0, flat_solves = 0;
  const auto check = [&](const Instance& inst) {
    const std::vector<Interval> ivs = inst.intervals();
    const auto peak = static_cast<std::uint64_t>(peak_overlap(ivs).count);
    const auto g = static_cast<std::uint64_t>(inst.g());
    const std::uint64_t rows = 2 * peak / g + 1;
    Time lo = ivs.front().start, hi = ivs.front().completion;
    for (const Interval& iv : ivs) {
      lo = std::min(lo, iv.start);
      hi = std::max(hi, iv.completion);
    }
    const auto width = static_cast<std::uint64_t>(hi - lo);
    FirstFitStats stats, flat;
    solve_first_fit(inst, &stats);
    solve_first_fit_flat(inst, &flat);
    EXPECT_LE(stats.machines, rows) << inst.summary();
    EXPECT_EQ(stats.machines, flat.machines) << inst.summary();
    EXPECT_EQ(stats.grid, g <= 255 && rows * width <= 128 * inst.size() ? 1u : 0u)
        << inst.summary();
    grid_solves += stats.grid;
    flat_solves += 1 - stats.grid;
  };
  GenParams p;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (const int g : {1, 2, 3, 8, 255, 256}) {
      p.n = 200;
      p.g = g;
      p.seed = seed * 71;
      check(gen_general(p));
      check(gen_clique(p));
      check(gen_proper(p));
      check(gen_proper_clique(p));
      check(gen_one_sided(p));
      TraceParams t;
      t.n = 300;
      t.g = g;
      t.seed = seed;
      t.diurnal = (seed % 2) == 0;
      check(gen_trace(t));
    }
  }
  // The sweep lands on both sides of the rule.
  EXPECT_GT(grid_solves, 0u);
  EXPECT_GT(flat_solves, 0u);
}

}  // namespace
}  // namespace busytime
