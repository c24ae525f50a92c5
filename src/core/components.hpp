// Connected components of the interval graph.
//
// MinBusy decomposes over connected components (Section 2): machines never
// profitably mix jobs from different components, so solvers run per
// component and the costs add.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/instance.hpp"
#include "core/instance_view.hpp"
#include "core/schedule.hpp"
#include "exec/thread_pool.hpp"

namespace busytime {

/// The sweep that cuts jobs into connected components: `count` jobs,
/// job_at(0) .. job_at(count - 1), in non-decreasing start order.  A job
/// starting before the running frontier (the greatest completion so far)
/// joins the open component; one starting at or after it only touches it
/// and opens the next.  Calls on_component(lo, hi) for each component
/// [lo, hi) in order.  Equal starts overlap, so no cut falls inside a run
/// of them, and the cuts do not depend on the order within a run.
/// component_bounds sweeps an instance's start order this way, and the
/// epoch hybrid its batch in arrival order.
template <class JobAt, class OnComponent>
void for_each_component(std::size_t count, const JobAt& job_at, OnComponent&& on_component) {
  if (count == 0) return;
  std::size_t lo = 0;
  Time frontier = job_at(0).completion();
  for (std::size_t k = 1; k < count; ++k) {
    const Job& job = job_at(k);
    if (job.start() < frontier) {
      frontier = std::max(frontier, job.completion());
      continue;
    }
    on_component(lo, k);
    lo = k;
    frontier = job.completion();
  }
  on_component(lo, count);
}

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
