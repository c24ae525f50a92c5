// Connected components of the interval graph.
//
// MinBusy decomposes over connected components (Section 2): machines never
// profitably mix jobs from different components, so solvers run per
// component and the costs add.
#pragma once

#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "exec/thread_pool.hpp"

namespace busytime {

/// Job ids of each connected component of the interval graph, in sweep
/// order.  Two jobs are adjacent iff their intervals overlap (positive
/// intersection length); touching endpoints do NOT connect.  O(n log n).
std::vector<std::vector<JobId>> connected_components(const Instance& inst);

/// Stitches per-component schedules into one schedule over the original job
/// ids, in component order: machine ids of component i are offset past the
/// highest id used by components 0..i-1, so the result is independent of
/// the order the parts were computed in.
inline Schedule stitch_component_schedules(
    const Instance& inst, const std::vector<std::vector<JobId>>& components,
    const std::vector<Schedule>& parts) {
  Schedule out(inst.size());
  MachineId base = 0;
  for (std::size_t i = 0; i < components.size(); ++i) {
    const auto& comp = components[i];
    const Schedule& part = parts[i];
    MachineId max_used = -1;
    for (std::size_t j = 0; j < comp.size(); ++j) {
      const MachineId m = part.machine_of(static_cast<JobId>(j));
      if (m == Schedule::kUnscheduled) continue;
      out.assign(comp[j], base + m);
      max_used = std::max(max_used, m);
    }
    base += max_used + 1;
  }
  return out;
}

/// Runs `solve` on each connected component as an independent sub-instance,
/// components solved concurrently on up to `threads` workers (0 = process
/// default, 1 = exact sequential path), and stitches the per-component
/// schedules deterministically in component order.  The result is identical
/// at every thread count.
///
/// `solve` must return a schedule for the sub-instance it is given and must
/// be safe to call concurrently on distinct sub-instances.
template <typename Solver>
Schedule solve_per_component_parallel(const Instance& inst, Solver&& solve,
                                      int threads) {
  const auto components = connected_components(inst);
  std::vector<Schedule> parts(components.size());
  exec::parallel_for(threads, components.size(), [&](std::size_t i) {
    parts[i] = solve(inst.restricted_to(components[i]));
  });
  return stitch_component_schedules(inst, components, parts);
}

}  // namespace busytime
