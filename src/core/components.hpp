// Connected components of the interval graph.
//
// MinBusy decomposes over connected components (Section 2): machines never
// profitably mix jobs from different components, so solvers run per
// component and the costs add.
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.hpp"
#include "core/instance_view.hpp"
#include "core/schedule.hpp"
#include "exec/thread_pool.hpp"

namespace busytime {

/// The connected components of the interval graph as one cut of the start
/// order, from one sweep over it: component i is the run
/// inst.ids_by_start()[bounds[i], bounds[i + 1]).  bounds.front() == 0 and
/// bounds.back() == n; an empty instance has no components ({0}).  Two
/// jobs are adjacent iff their intervals overlap (positive intersection
/// length); touching endpoints do NOT connect.
std::vector<std::size_t> component_bounds(const Instance& inst);

/// Job ids of each connected component, in sweep order: the runs that
/// component_bounds cuts, each copied into its own vector.
std::vector<std::vector<JobId>> connected_components(const Instance& inst);

/// Stitches per-component schedules into one schedule over the original job
/// ids, in component order: machine ids of component i are offset past the
/// highest id used by components 0..i-1, so the result is independent of
/// the order the parts were computed in.
Schedule stitch_component_schedules(const InstanceView& view,
                                    const std::vector<Schedule>& parts);

/// Runs `solve` on each connected component as an independent sub-instance
/// (the view's), components solved concurrently on up to `threads` workers
/// (0 = process default, 1 = exact sequential path), and stitches the
/// per-component schedules deterministically in component order.  The
/// result is identical at every thread count.
///
/// `solve` must return a schedule for the sub-instance it is given and must
/// be safe to call concurrently on distinct sub-instances.
template <typename Solver>
Schedule solve_per_component_parallel(const Instance& inst, Solver&& solve,
                                      int threads) {
  const InstanceView view(inst, threads);
  std::vector<Schedule> parts(view.component_count());
  exec::parallel_for(threads, parts.size(), [&](std::size_t i) {
    parts[i] = solve(view.component_instance(i));
  });
  return stitch_component_schedules(view, parts);
}

}  // namespace busytime
