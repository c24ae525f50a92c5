// Problem instance: a set of jobs plus the parallelism parameter g, with
// the job orders every solver reads (start order, FirstFit's length
// order) memoized.  A component sub-instance built by InstanceView is born
// with its start order recorded, so no solver scans it again.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/job.hpp"
#include "core/time_types.hpp"

namespace busytime {

/// An instance (J, g) of MinBusy, or the job/capacity part of a
/// MaxThroughput instance (J, g, T).
///
/// Invariants:
///  * g >= 1 (construction throws std::invalid_argument otherwise);
///  * every job has positive length (checked in debug builds).
///
/// An Instance is immutable after construction (the only mutation is
/// whole-object assignment), so the sorted-id orders below are memoized:
/// the first call builds the order, every later call — including
/// concurrent calls from solver threads — returns the cached vector.
/// Copies share the cache (their jobs are identical); assignment replaces
/// it together with the jobs, which is what keeps it consistent.
class Instance {
 public:
  Instance() = default;
  Instance(std::vector<Job> jobs, int g);

  Instance(const Instance&) = default;
  Instance& operator=(const Instance&) = default;
  // Moves hand the cache to the destination and leave the source with a
  // fresh empty one, so cache_ is never null and the memoized accessors
  // stay race-free even on a revived moved-from instance.
  Instance(Instance&& other) noexcept;
  Instance& operator=(Instance&& other) noexcept;

  const std::vector<Job>& jobs() const noexcept { return jobs_; }
  const Job& job(JobId id) const { return jobs_.at(static_cast<std::size_t>(id)); }
  std::size_t size() const noexcept { return jobs_.size(); }
  bool empty() const noexcept { return jobs_.empty(); }
  int g() const noexcept { return g_; }

  /// len(J) = Σ_j len(J_j).
  Time total_length() const noexcept;

  /// span(J) = length of ∪_j J_j.
  Time span() const;

  /// All job intervals, in job-id order.
  std::vector<Interval> intervals() const;

  /// Job ids sorted by non-decreasing start time (ties: by completion,
  /// then id).  For proper instances this is exactly the paper's order
  /// J1 <= J2 <= ...  One O(n) scan checks that the jobs are in start
  /// order and sorts each run of equal starts as it closes (an insertion
  /// sort for a short run); the first start that goes backwards falls
  /// back to a comparison sort.  Memoized; thread-safe.  The reference
  /// stays valid for the lifetime of this instance and of any copy
  /// sharing its cache.
  const std::vector<JobId>& ids_by_start() const;

  /// Job ids sorted by non-increasing length, ties by id (FirstFit order).
  /// One counting pass over the lengths when max - min length < 4n + 64,
  /// else a comparison sort; both give the same order.  Memoized;
  /// thread-safe.
  const std::vector<JobId>& ids_by_length_desc() const;

  /// Sub-instance restricted to `ids` (job ids renumbered 0..k-1 in the
  /// given order); used by solvers that work on a subset of the jobs, and
  /// the oracle the tests hold InstanceView's component sub-instances to.
  Instance restricted_to(const std::vector<JobId>& ids) const;

  /// Human-readable one-line summary for logs and error messages.
  std::string summary() const;

 private:
  friend class InstanceView;

  /// An instance whose jobs are already in (start, completion) order, ties
  /// in the order they should keep: its ids_by_start() is the identity and
  /// is recorded so, without the scan.  InstanceView::classified_component
  /// builds the view's and the epoch hybrid's component sub-instances this
  /// way; audit builds check the order.
  static Instance in_start_order(std::vector<Job> jobs, int g);

  /// Lazily-built sorted-id orders, tied to the job-vector snapshot.
  /// std::call_once makes the build race-free when solver threads share one
  /// instance read-only.
  struct OrderCache {
    std::once_flag by_start_once;
    std::once_flag by_length_once;
    std::vector<JobId> by_start;
    std::vector<JobId> by_length;
  };

  std::vector<Job> jobs_;
  int g_ = 1;
  /// Never null (see the move operations).
  std::shared_ptr<OrderCache> cache_ = std::make_shared<OrderCache>();
};

/// Orders one run of equal starts by (completion, id): `ids` holds the
/// run's `count` ids in ascending order and `completion(id)` reads each
/// one's completion.  A run of at most 16 takes an insertion sort, stable,
/// so equal completions keep id order (runs in a trace hold a few jobs,
/// and this spares each one a std::sort call); a longer run a comparison
/// sort on (completion, id).  Instance::ids_by_start orders each run of a
/// start-ordered instance this way, and the epoch hybrid each run of its
/// batch.
template <class Id, class CompletionOf>
void order_run_by_completion(Id* ids, std::size_t count, const CompletionOf& completion) {
  constexpr std::size_t kInsertionSortMax = 16;
  if (count > kInsertionSortMax) {
    std::sort(ids, ids + count, [&](Id a, Id b) {
      const Time ca = completion(a);
      const Time cb = completion(b);
      return ca != cb ? ca < cb : a < b;
    });
    return;
  }
  for (std::size_t k = 1; k < count; ++k) {
    const Id id = ids[k];
    const Time c = completion(id);
    std::size_t slot = k;
    for (; slot > 0 && completion(ids[slot - 1]) > c; --slot) ids[slot] = ids[slot - 1];
    ids[slot] = id;
  }
}

}  // namespace busytime
