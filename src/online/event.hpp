// Arrival, cancellation, and preemption events for the online engine.
//
// The online setting (cf. the serving scenarios behind the paper's cloud and
// optical applications) reveals jobs one at a time, at their start instants;
// a scheduler must commit each job to a machine without knowledge of future
// arrivals.  Replaying an offline Instance in non-decreasing start order
// (Instance::ids_by_start) is exactly the order a real arrival process would
// deliver its jobs in.
//
// Production streams also *retract* work: a job may be cancelled by its
// owner or preempted by the system before its advertised completion.  An
// EventTrace pairs an arrival Instance with a list of CancelRecords; the
// replay (online/stream_driver) merges the two into one time-ordered event
// sequence by retraction_precedes_arrival.  The engine handles retractions
// incrementally (busy-time refunds, slot releases) rather than by replaying
// from scratch — the same maintain-under-deletions discipline as incremental
// UTVPI satisfiability (Schutt & Stuckey), applied to busy-time accounting.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/instance.hpp"
#include "util/fields.hpp"

namespace busytime {

/// One job arrival: the job id it carries in the originating instance plus
/// the job itself.  Ids are preserved so the resulting online Schedule is
/// directly comparable (cost, validity) against offline schedules of the
/// same instance.
struct ArrivalEvent {
  JobId id = 0;
  Job job;
};

/// One retraction: job `job` stops running at `at`.  A cancel is a user-side
/// retraction, a preemption a system-side stop; both truncate the job's run
/// to [start, at) and differ only in how the engine counts them.  A record
/// is *effective* iff start < at < completion — the job must actually be
/// mid-flight; anything else (already finished, not yet started, second
/// retraction of the same job) is a no-op counted as ignored.
struct CancelRecord {
  JobId job = 0;
  Time at = 0;
  bool preempt = false;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("job", &CancelRecord::job);
    f("at", &CancelRecord::at);
    f("preempt", &CancelRecord::preempt);
  }

  friend bool operator==(const CancelRecord& a, const CancelRecord& b) noexcept {
    return util::fields_equal(a, b);
  }
  friend bool operator!=(const CancelRecord& a, const CancelRecord& b) noexcept {
    return !(a == b);
  }
};

/// An arrival instance plus interleaved cancellation/preemption records —
/// the full input of a replay with retractions.
///
/// Construction canonicalizes the records: they are sorted by (at, job), and
/// records that can never take effect (at outside (start, completion), or a
/// second record for an already-retracted job) are dropped and counted in
/// dropped_cancels().  After canonicalization every surviving record is
/// effective during replay, which is what keeps sharded replay bit-identical
/// to sequential: an effective record's time always falls strictly inside
/// its job's interval, hence strictly inside its component's time range, so
/// records shard with their component.
class EventTrace {
 public:
  EventTrace() = default;
  /* implicit */ EventTrace(Instance base) : base_(std::move(base)) {}
  /// Throws std::invalid_argument when a record names a job id out of range.
  EventTrace(Instance base, std::vector<CancelRecord> cancels);

  EventTrace(const EventTrace&) = default;
  EventTrace& operator=(const EventTrace&) = default;
  // Moves hand the residual cache to the destination and leave the source
  // with a fresh empty one, so cache_ is never null (same discipline as
  // Instance's order cache).
  EventTrace(EventTrace&& other) noexcept;
  EventTrace& operator=(EventTrace&& other) noexcept;

  const Instance& base() const noexcept { return base_; }
  const std::vector<CancelRecord>& cancels() const noexcept { return cancels_; }
  bool has_cancels() const noexcept { return !cancels_.empty(); }
  /// Records dropped by canonicalization (could never take effect).
  std::size_t dropped_cancels() const noexcept { return dropped_; }

  std::size_t size() const noexcept { return base_.size(); }      ///< jobs
  std::size_t events() const noexcept { return base_.size() + cancels_.size(); }
  int g() const noexcept { return base_.g(); }

  /// The residual instance: every retracted job truncated to [start, at).
  /// A replay's final online_cost equals cost(schedule, residual()), and the
  /// residual is the honest input for offline comparisons and lower bounds.
  /// Memoized; thread-safe (solver threads share one trace read-only).  The
  /// reference stays valid for the lifetime of this trace and of any copy
  /// sharing its cache; traces without retractions return base() directly.
  const Instance& residual() const;

 private:
  /// Lazily-built residual, tied to the (immutable) base/cancels snapshot.
  struct ResidualCache {
    std::once_flag once;
    Instance residual;
  };

  Instance base_;
  std::vector<CancelRecord> cancels_;  // canonical: (at, job)-sorted, effective
  std::size_t dropped_ = 0;
  /// Never null (see the move operations).
  std::shared_ptr<ResidualCache> cache_ = std::make_shared<ResidualCache>();
};

/// The canonical merge rule for interleaving retractions with arrivals.  At
/// equal instants retractions come first: a job cancelled at t is not
/// running at t (half-open intervals), so its slot is free for a job
/// arriving at t.
constexpr bool retraction_precedes_arrival(Time cancel_at,
                                           Time arrival_start) noexcept {
  return cancel_at <= arrival_start;
}

}  // namespace busytime
