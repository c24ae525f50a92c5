#include "algo/dispatch.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "core/components.hpp"
#include "core/instance_view.hpp"
#include "exec/thread_pool.hpp"
#include "obs/hooks.hpp"

namespace busytime {

const SolverInfo& solve_component(const std::vector<const SolverInfo*>& candidates,
                                  const Instance& sub, const InstanceClass& cls,
                                  Schedule& schedule) {
  for (const SolverInfo* info : candidates) {
    if (!info->is_applicable(sub, cls)) continue;
    SolverSpec spec;
    spec.name = info->name;
    schedule = info->run(sub, spec).schedule;
    return *info;
  }
  // first_fit registers with an always-true predicate, so this is
  // unreachable unless the registry was emptied.
  throw std::logic_error("no dispatchable solver applies to " + sub.summary());
}

DispatchResult solve_minbusy_auto(const InstanceView& view, int threads,
                                  const RequestContext* context) {
  // Resolve the registry before fanning out: registration is not expected
  // under a running dispatch, and the dispatch order must be one snapshot.
  const auto& candidates = SolverRegistry::instance().dispatchable();
  const Instance& inst = view.instance();
  const std::size_t count = view.component_count();

  // Deterministic counts: one dispatch run, `count` components, inst.size()
  // jobs — identical totals at every worker count.  Only the *_us
  // histograms carry wall-clock values.
  obs::MetricsRegistry* const metrics = obs::metrics_of(context);
  if (metrics != nullptr) {
    metrics->add<obs::metric::kSolveDispatchRuns>();
    metrics->add<obs::metric::kSolveComponentsSolved>(count);
    metrics->add<obs::metric::kSolveJobsDispatched>(inst.size());
  }
  obs::TraceContext* spans = obs::trace_of(context);
  const obs::ScopedSpan dispatch_span(spans, "dispatch",
                                      obs::span_parent(context),
                                      static_cast<std::int64_t>(count));

  std::vector<Schedule> parts(count);
  std::vector<std::string> names(count);
  exec::parallel_for(threads, count, [&](std::size_t i) {
    // The component boundary is the deadline/cancellation granularity: a
    // control that trips here aborts the dispatch (parallel_for skips the
    // remaining components and rethrows), never a running solver.
    if (context != nullptr) context->check();
    const Instance& sub = view.component_instance(i);
    const auto c0 = std::chrono::steady_clock::now();
    const SolverInfo& info =
        solve_component(candidates, sub, view.component_class(i), parts[i]);
    names[i] = info.name;
    const auto c1 = std::chrono::steady_clock::now();
    if (metrics != nullptr) {
      metrics->record<obs::metric::kSolveComponentJobs>(sub.size());
      metrics->record<obs::metric::kSolveComponentSolveUs>(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(c1 - c0)
                  .count()));
    }
    if (spans != nullptr)
      spans->add("component:" + info.name, dispatch_span.id(), c0, c1,
                 static_cast<std::int64_t>(sub.size()));
  });

  DispatchResult result;
  {
    const obs::ScopedSpan merge_span(spans, "merge", dispatch_span.id(),
                                     static_cast<std::int64_t>(inst.size()));
    result.schedule = stitch_component_schedules(view, parts);
  }
  result.names = std::move(names);
  result.component_jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    result.component_jobs.push_back(view.component_ids(i).size());
  return result;
}

DispatchResult solve_minbusy_auto(const Instance& inst, int threads,
                                  const RequestContext* context) {
  // No cached decomposition for this request: build the view inline, under
  // a "view_build" span (with the classification phase as its "classify"
  // child; value = component count once known).
  if (obs::MetricsRegistry* metrics = obs::metrics_of(context))
    metrics->add<obs::metric::kSolveViewBuildsInline>();
  obs::TraceContext* spans = obs::trace_of(context);
  const std::uint32_t build_span =
      spans != nullptr ? spans->open("view_build", obs::span_parent(context))
                       : 0;
  const InstanceView view(inst, threads, spans, build_span);
  if (spans != nullptr) {
    spans->set_value(build_span,
                     static_cast<std::int64_t>(view.component_count()));
    spans->close(build_span);
  }
  return solve_minbusy_auto(view, threads, context);
}

}  // namespace busytime
