// InstanceView: the read-only per-solve cache layer.
//
// One MinBusy solve needs the same derived facts over and over: the
// start-sorted id order (14 call sites across the solvers), the connected
// components, each component's sub-instance, and each component's
// core/classify result (which every applicability predicate used to
// re-derive).  An InstanceView computes all of them exactly once and
// exposes them as read-only state that solver threads share without
// synchronization.
//
// The build touches each job twice after the instance's start order: one
// sweep of that order cuts the components as runs of it (offsets, no
// per-component id vectors), and one copy loop per component, in that
// order (classified_component, which the epoch hybrid's batches share),
// builds the sub-instance, computes its classification on the way, and
// records its start order as the identity, which it is: the jobs are
// copied in (start, completion, id) order and renumbered in that order.
// Instance::restricted_to and core/classify stay as the oracles the tests
// compare each component against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/classify.hpp"
#include "core/instance.hpp"

namespace busytime {

namespace obs {
class TraceContext;
}

/// A run of job ids inside a vector the range does not own.
class JobIdRange {
 public:
  JobIdRange(const JobId* first, const JobId* last) : first_(first), last_(last) {}
  const JobId* begin() const noexcept { return first_; }
  const JobId* end() const noexcept { return last_; }
  std::size_t size() const noexcept { return static_cast<std::size_t>(last_ - first_); }
  JobId operator[](std::size_t k) const noexcept { return first_[k]; }

 private:
  const JobId* first_;
  const JobId* last_;
};

class InstanceView {
 public:
  /// Builds the view: components via one sweep over the memoized start
  /// order, then sub-instance + classification per component on up to
  /// `threads` workers (0 = process default, 1 = sequential).
  ///
  /// A non-null `trace` records the classification phase as a "classify"
  /// span (value = component count) under `parent` — the request-scoped
  /// observability hook; null (the default) costs nothing.
  explicit InstanceView(const Instance& inst, int threads = 1,
                        obs::TraceContext* trace = nullptr,
                        std::uint32_t trace_parent = 0);

  const Instance& instance() const noexcept { return *inst_; }

  /// Job ids sorted by non-decreasing start (the instance's memoized order).
  const std::vector<JobId>& order() const noexcept { return *order_; }

  std::size_t component_count() const noexcept { return subs_.size(); }

  /// Original job ids of component i, in start order: a run of order().
  JobIdRange component_ids(std::size_t i) const {
    return {order_->data() + bounds_[i], order_->data() + bounds_[i + 1]};
  }
  /// Component i as a standalone instance (jobs renumbered 0..k-1 in start
  /// order), equal to instance().restricted_to(component_ids(i)).
  const Instance& component_instance(std::size_t i) const { return subs_[i]; }
  /// core/classify of component i, computed once at view construction.
  const InstanceClass& component_class(std::size_t i) const {
    return classes_[i];
  }

  /// Builds one component sub-instance from its `count` >= 1 jobs,
  /// job_at(0) .. job_at(count - 1), given in (start, completion) order
  /// with ties in the order they should keep.  One copy loop reads
  /// core/classify's three predicates off consecutive jobs into `cls` on
  /// the way, and the sub-instance's start order is recorded as the
  /// identity, which it is.  The view builds each component this way, and
  /// the epoch hybrid each component of its batch.
  template <class JobAt>
  static Instance classified_component(std::size_t count, const JobAt& job_at,
                                       int g, InstanceClass& cls);

 private:
  const Instance* inst_;
  const std::vector<JobId>* order_;
  std::vector<std::size_t> bounds_;  ///< component i is order()[bounds_[i], bounds_[i + 1])
  std::vector<Instance> subs_;
  std::vector<InstanceClass> classes_;
};

template <class JobAt>
Instance InstanceView::classified_component(std::size_t count, const JobAt& job_at,
                                            int g, InstanceClass& cls) {
  std::vector<Job> jobs;
  jobs.reserve(count);
  const Job first = job_at(0);
  Time min_completion = first.completion();
  bool proper = true;
  bool same_start = true;
  bool same_completion = true;
  jobs.push_back(first);
  for (std::size_t k = 1; k < count; ++k) {
    const Job& prev = jobs.back();
    const Job& job = job_at(k);
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
  cls.clique = jobs.back().start() < min_completion;  // the latest start
  cls.proper = proper;
  cls.one_sided = cls.clique && (same_start || same_completion);
  return Instance::in_start_order(std::move(jobs), g);
}

}  // namespace busytime
