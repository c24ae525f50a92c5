#include "core/instance_view.hpp"

#include <algorithm>

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
    // One copy loop in the parent's start order, ties included; the
    // classification is core/classify's three predicates, read off
    // consecutive jobs as they are copied.
    const JobIdRange ids = component_ids(i);
    std::vector<Job> jobs;
    jobs.reserve(ids.size());
    const Job first = all[static_cast<std::size_t>(ids[0])];
    Time min_completion = first.completion();
    bool proper = true;
    bool same_start = true;
    bool same_completion = true;
    jobs.push_back(first);
    for (std::size_t k = 1; k < ids.size(); ++k) {
      const Job& prev = jobs.back();
      const Job& job = all[static_cast<std::size_t>(ids[k])];
      // Start order makes "no job properly contains another" a property of
      // neighbours: equal starts need equal completions, later starts
      // later completions.
      proper &= job.start() == prev.start() ? job.completion() == prev.completion()
                                            : job.completion() > prev.completion();
      same_start &= job.start() == first.start();
      same_completion &= job.completion() == first.completion();
      min_completion = std::min(min_completion, job.completion());
      jobs.push_back(job);
    }
    InstanceClass& cls = classes_[i];
    cls.clique = jobs.back().start() < min_completion;  // the latest start
    cls.proper = proper;
    cls.one_sided = cls.clique && (same_start || same_completion);
    subs_[i] = Instance::in_start_order(std::move(jobs), inst.g());
  });
}

}  // namespace busytime
