// GoogleTest checks shared by the FirstFit equivalence suites: every input
// goes through both kernels, forced, and through the production pick.
#pragma once

#include <gtest/gtest.h>

#include "algo/first_fit.hpp"
#include "core/validate.hpp"
#include "support/first_fit_oracles.hpp"

namespace busytime {

/// Every counter except `grid` (which names the kernel) must agree.
inline void expect_same_work(const FirstFitStats& a, const FirstFitStats& b) {
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.window_accepts, b.window_accepts);
  EXPECT_EQ(a.profile_checks, b.profile_checks);
  EXPECT_EQ(a.machines, b.machines);
  EXPECT_EQ(a.segments, b.segments);
}

/// The flat profile, the count grid and solve_first_fit must each return
/// the quadratic reference's assignment, with the same counters.  `inst`
/// must meet the grid's hard preconditions (positive lengths, g <= 255),
/// so the forced grid really runs.
inline void expect_kernels_match_reference(const Instance& inst) {
  const Schedule reference = solve_first_fit_reference(inst);
  FirstFitStats flat_stats, grid_stats, stats;
  const Schedule flat = solve_first_fit_flat(inst, &flat_stats);
  const Schedule grid = solve_first_fit_grid(inst, &grid_stats);
  const Schedule chosen = solve_first_fit(inst, &stats);
  ASSERT_TRUE(is_valid(inst, chosen));
  EXPECT_EQ(flat.assignment(), reference.assignment());
  EXPECT_EQ(grid.assignment(), reference.assignment());
  EXPECT_EQ(chosen.assignment(), reference.assignment());
  EXPECT_EQ(flat_stats.grid, 0u);
  EXPECT_EQ(grid_stats.grid, 1u);
  expect_same_work(flat_stats, grid_stats);
  expect_same_work(flat_stats, stats);
}

}  // namespace busytime
