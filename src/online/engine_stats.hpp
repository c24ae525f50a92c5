// Counters maintained by the streaming engine.
//
// The stats layer is what turns the engine from "an assignment loop" into a
// measurable serving system: every placement updates the accumulated busy
// time (the online analogue of cost(s), Section 2) incrementally, so the
// engine never recomputes a union of intervals, and open/close events plus
// peak load give capacity-planning signals that the offline solvers have no
// notion of.  Cancellation events subtract from the same accumulator (the
// busy-time refund), so online_cost equals cost(s) of the engine's schedule
// against the *residual* instance at every point of the stream.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "core/time_types.hpp"
#include "util/fields.hpp"

namespace busytime {

struct EngineStats {
  std::int64_t jobs_assigned = 0;
  std::int64_t machines_opened = 0;
  std::int64_t machines_closed = 0;
  std::int64_t open_machines = 0;       ///< currently open (not yet idle)
  std::int64_t peak_open_machines = 0;
  std::int64_t active_jobs = 0;         ///< currently running across the pool
  std::int64_t peak_active_jobs = 0;    ///< peak concurrent load seen so far
  /// Jobs truncated by an effective Cancel event (user retraction).
  std::int64_t jobs_cancelled = 0;
  /// Jobs truncated by an effective Preempt event (system-side stop).
  std::int64_t jobs_preempted = 0;
  /// Cancel/preempt events that had no effect: the job had already
  /// completed, had not run yet, or was cancelled twice.
  std::int64_t cancels_ignored = 0;
  /// Machine-pool slot reuses: machines opened into a slot previously freed
  /// by a closed machine (the id indirection keeps external MachineIds
  /// stable).  Invariant: machines_opened - peak_open_machines.
  std::int64_t slots_recycled = 0;
  /// Busy time returned by truncations of *placed* jobs: the part of each
  /// machine's busy tail no longer covered by any remaining job.  Pending
  /// (not yet placed) jobs truncated inside an epoch batch never charged
  /// their tail, so they refund nothing.
  Time busy_time_refunded = 0;
  /// Latest stream time the engine has advanced to (lowest() before the
  /// first arrival).  Every placement happens at clock >= job start, which
  /// is the online "no assignment before arrival" invariant.
  Time clock = std::numeric_limits<Time>::lowest();
  /// Accumulated busy time of all machines — equals cost(s) of the engine's
  /// schedule against the residual instance at every point of the stream.
  Time online_cost = 0;

  std::string summary() const;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("jobs_assigned", &EngineStats::jobs_assigned);
    f("machines_opened", &EngineStats::machines_opened);
    f("machines_closed", &EngineStats::machines_closed);
    f("open_machines", &EngineStats::open_machines);
    f("peak_open_machines", &EngineStats::peak_open_machines);
    f("active_jobs", &EngineStats::active_jobs);
    f("peak_active_jobs", &EngineStats::peak_active_jobs);
    f("jobs_cancelled", &EngineStats::jobs_cancelled);
    f("jobs_preempted", &EngineStats::jobs_preempted);
    f("cancels_ignored", &EngineStats::cancels_ignored);
    f("slots_recycled", &EngineStats::slots_recycled);
    f("busy_time_refunded", &EngineStats::busy_time_refunded);
    f("clock", &EngineStats::clock);
    f("online_cost", &EngineStats::online_cost);
  }

  friend bool operator==(const EngineStats& a, const EngineStats& b) noexcept {
    return util::fields_equal(a, b);
  }
  friend bool operator!=(const EngineStats& a, const EngineStats& b) noexcept {
    return !(a == b);
  }
};

}  // namespace busytime
