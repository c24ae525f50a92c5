#include "core/instance_view.hpp"

#include "core/components.hpp"
#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace busytime {

InstanceView::InstanceView(const Instance& inst, int threads,
                           obs::TraceContext* trace,
                           std::uint32_t trace_parent)
    : inst_(&inst),
      order_(&inst.ids_by_start()),
      bounds_(component_bounds(inst)) {
  const std::size_t count = bounds_.size() - 1;
  const obs::ScopedSpan classify_span(trace, "classify", trace_parent,
                                      static_cast<std::int64_t>(count));
  subs_.resize(count);
  classes_.resize(count);
  const std::vector<Job>& all = inst.jobs();
  exec::parallel_for(threads, count, [&](std::size_t i) {
    // Copied in the parent's start order, ties included.
    const JobIdRange ids = component_ids(i);
    subs_[i] = classified_component(
        ids.size(),
        [&](std::size_t k) -> const Job& {
          return all[static_cast<std::size_t>(ids[k])];
        },
        inst.g(), classes_[i]);
  });
}

}  // namespace busytime
