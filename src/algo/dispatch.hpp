// Algorithm dispatcher: routes an instance to the strongest applicable
// MinBusy algorithm, per connected component.
//
// Since the unified solver API landed, the dispatcher is a thin policy over
// the SolverRegistry: for each component it runs the applicable registered
// solver with the highest dispatch priority.  The built-in priorities
// reproduce the paper's routing table:
//
//   one-sided clique        -> Observation 3.1 greedy        (optimal)
//   proper clique           -> FindBestConsecutive DP        (optimal)
//   clique, g = 2           -> maximum-weight matching       (optimal)
//   clique, small n         -> Lemma 3.2 set cover           (gH_g/(H_g+g-1))
//   proper                  -> BestCut                       (2 - 1/g)
//   otherwise               -> FirstFit                      (4, from [13])
//
// Solvers registered by applications with dispatch_priority >= 0 take part
// automatically.
#pragma once

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace busytime {

class InstanceView;
struct InstanceClass;
struct RequestContext;
struct SolverInfo;

struct DispatchResult {
  Schedule schedule;
  /// Registry name of the solver used per component, in component order.
  std::vector<std::string> names;
  /// Jobs per component, aligned with `names`.
  std::vector<std::size_t> component_jobs;
};

/// The dispatcher's per-component step: the first of `candidates`
/// (SolverRegistry::dispatchable(), strongest first) whose predicate
/// accepts the component `sub`, classified once as `cls`, solves it.
/// Returns that solver; the component's schedule, over sub's job ids,
/// lands in `schedule`.  solve_minbusy_auto runs it on each component of a
/// view, and the epoch hybrid on each component of its batch.
const SolverInfo& solve_component(const std::vector<const SolverInfo*>& candidates,
                                  const Instance& sub, const InstanceClass& cls,
                                  Schedule& schedule);

/// Solves MinBusy with the best applicable registered solver per component.
/// Components are classified once (core/classify shared by every candidate
/// predicate) and solved concurrently on up to `threads` workers (0 = the
/// exec process default, 1 = exact sequential path); schedules, names, and
/// traces are stitched deterministically in component order, so the result
/// is identical at every thread count.  Builds the InstanceView inline;
/// `context` (may be null) carries the per-request controls described below.
DispatchResult solve_minbusy_auto(const Instance& inst, int threads = 0,
                                  const RequestContext* context = nullptr);

/// Dispatch over a prebuilt InstanceView (the Service facade's cached
/// decomposition) with optional per-request controls: `context` (may be
/// null) is checked before each component is solved — the component-boundary
/// granularity of the deadline/cancellation contract — throwing
/// DeadlineExceededError / RequestCancelledError out of the dispatch.
/// Results are bit-identical to the Instance overload for every view of
/// the same instance, at every thread count.
DispatchResult solve_minbusy_auto(const InstanceView& view, int threads,
                                  const RequestContext* context);

}  // namespace busytime
