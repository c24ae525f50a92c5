// Incremental machine-pool state for the streaming engine.
//
// The pool exploits the one structural fact the online setting guarantees —
// jobs arrive in non-decreasing start order — to make every operation cheap:
//
//  * feasibility on a machine is just "active jobs < g", because every job
//    active at the arrival instant overlaps the newcomer, and any future
//    arrival re-checks at its own instant (so the per-placement check is
//    also sufficient for validity over all time);
//  * each machine's busy time (union length of its jobs, Section 2) grows
//    by an O(1)-computable extension: starts never decrease, so a new job
//    either stretches the machine's current busy segment or opens a fresh
//    one after an idle gap;
//  * a machine whose last job completed can be closed permanently — reusing
//    it would cost exactly as much as a fresh machine (the paper's WLOG
//    that disconnected busy periods split into separate machines), so the
//    scan set stays proportional to the *current* load, not the history.
//
// Each open machine keeps the completions of its running jobs as an
// unsorted run of at most g values plus its cached least element: place
// appends, a retirement compacts the run in one branch-free pass when the
// cached least completion is due, and truncate swap-removes one value.
//
// Cancellations run the accounting in reverse: truncate(m, c, ...) removes
// one running job and refunds the part of the machine's busy tail no longer
// covered by any remaining job — one O(g) pass over the run that finds the
// new least and greatest completions, never a from-scratch union
// recomputation.
//
// Machine ids are *stable* (dense, in opening order, never reused) but live
// behind a slot indirection: closed machines return their storage slot to a
// free list and the next open_machine() recycles it, so a long-lived stream
// holds one run (with its heap allocation) per *concurrently* open machine
// plus 4 bytes per machine ever opened — not a full record per machine ever
// opened.  The open list carries each machine's slot, so the policies' scans
// never look an id up.
//
// Pinned machines are the one exception to auto-closing: the epoch-hybrid
// policy pre-assigns a whole batch to machines before replaying the batch's
// arrivals, so those machines must survive idle gaps until the batch is
// fully placed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "core/time_types.hpp"
#include "online/engine_stats.hpp"

namespace busytime {

/// An open machine: its stable id and its storage slot.  Valid until the
/// machine closes (the next advance() past its last running job).
struct OpenMachine {
  MachineId id = Schedule::kUnscheduled;
  std::int32_t slot = -1;
};

class MachinePool {
 public:
  explicit MachinePool(int g);

  int g() const noexcept { return g_; }

  /// Advances the stream clock to `now` (monotone; asserts otherwise):
  /// retires jobs with completion <= now and closes machines that became
  /// idle, returning their slots to the free list.  Call once per event
  /// instant before querying fits/extension.
  void advance(Time now);

  /// The currently open machines, in ascending (opening) id order.
  const std::vector<OpenMachine>& open_machines() const noexcept { return open_; }

  /// True iff open machine `m` can take one more job at the current clock.
  bool fits(const OpenMachine& m) const {
    return active_count_[static_cast<std::size_t>(m.slot)] < g_;
  }

  /// Busy-time increase of placing `iv` on open machine `m` right now.
  /// Always <= iv.length(); strictly less iff the machine's busy segment
  /// reaches past iv.start.
  Time extension(const OpenMachine& m, const Interval& iv) const {
    const Time seg_end = seg_end_[static_cast<std::size_t>(m.slot)];
    if (iv.start >= seg_end) return iv.length();  // idle gap or no job yet
    return std::max<Time>(0, iv.completion - seg_end);
  }

  /// Opens a machine.  Ids are dense and stable; the backing slot is
  /// recycled from a closed machine when one is free.  Pinned machines are
  /// exempt from idle auto-closing until unpin_all().
  OpenMachine open_machine(bool pinned = false);

  /// Places `iv` on open machine `m` at the current clock (advance(iv.start)
  /// must have been called).  Updates busy time incrementally.
  void place(const OpenMachine& m, const Interval& iv);

  /// Truncates a running job on open machine `m` at the current clock: the
  /// job previously placed with completion `completion` stops now.  Frees
  /// its capacity slot, refunds the machine's busy tail that no other
  /// running job covers, and returns the refund.  Returns nullopt — with no
  /// stats touched — when no such running job exists on `m` (replay
  /// guarantees one; direct API callers count the event as ignored).
  /// Advance to the cancel instant first.
  std::optional<Time> truncate(MachineId m, Time completion, bool preempt);

  /// Counts a cancel/preempt event that had no effect (job already done,
  /// not started, or already retracted).
  void note_ignored_cancel() { ++stats_.cancels_ignored; }

  /// Counts a retraction of a job that was never placed (epoch-hybrid
  /// pending batch): the tail was never charged, so nothing is refunded.
  void note_pending_cancel(bool preempt) {
    ++(preempt ? stats_.jobs_preempted : stats_.jobs_cancelled);
  }

  /// Clears all pins; idle pinned machines close on the next advance().
  void unpin_all();

  const EngineStats& stats() const noexcept { return stats_; }

  /// Machines ever opened (== the id the next open_machine() returns).
  std::size_t machines_ever() const noexcept { return slot_of_.size(); }
  /// Backing slots in existence (high-water of open machines).
  std::size_t slot_count() const noexcept { return running_.size(); }

 private:
  static constexpr std::int32_t kNoSlot = -1;
  /// next_completion_ of a slot with no running job: compares greater than
  /// any real clock, so the scans need no emptiness branch.
  static constexpr Time kIdle = std::numeric_limits<Time>::max();
  /// seg_end_ of a slot whose machine has no job yet: every start reaches
  /// past it, so the first placement opens a fresh segment.
  static constexpr Time kNoJobs = std::numeric_limits<Time>::lowest();

  std::size_t slot_of(MachineId id) const {
    const std::int32_t slot = slot_of_[static_cast<std::size_t>(id)];
    assert(slot != kNoSlot);
    return static_cast<std::size_t>(slot);
  }

  /// Drops the completions <= now from slot `s`'s run.
  void retire(std::size_t s, Time now);

  int g_ = 1;
  /// Cold per-slot storage: completions of the jobs still running, in no
  /// order.  Touched only when a completion is due (advance), a job is
  /// placed, or a truncate removes one.
  std::vector<std::vector<Time>> running_;
  // Hot per-slot scalars, SoA (the algo/profile.hpp discipline): the
  // advance/fits/extension scans the policies issue per event read these
  // parallel flat vectors and never touch a run unless a completion is
  // due.  next_completion_ caches the run's least value (kIdle when no job
  // is running) so the common advance step is one flat compare per open
  // machine.
  std::vector<Time> next_completion_;
  std::vector<Time> seg_end_;
  std::vector<std::int32_t> active_count_;
  std::vector<std::uint8_t> slot_pinned_;
  /// External id -> slot index; kNoSlot once the machine has closed.  This
  /// is the only per-machine-ever state (4 bytes each).
  std::vector<std::int32_t> slot_of_;
  std::vector<std::int32_t> free_slots_;  // LIFO: hottest storage first
  std::vector<OpenMachine> open_;
  std::vector<MachineId> pinned_;
  EngineStats stats_;
};

}  // namespace busytime
