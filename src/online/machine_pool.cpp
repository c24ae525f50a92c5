#include "online/machine_pool.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "util/check.hpp"

namespace busytime {

MachinePool::MachinePool(int g) : g_(g) { assert(g >= 1); }

void MachinePool::retire(std::size_t s, Time now) {
  // Retire jobs whose half-open interval has ended: [s, c) is no longer
  // running at time c, so completions <= now free a slot.  Every value is
  // written back and the kept count advances only past live ones, so the
  // pass has no data-dependent branch.
  std::vector<Time>& run = running_[s];
  Time* const c = run.data();
  const std::size_t size = run.size();
  std::size_t kept = 0;
  Time least = kIdle;
  for (std::size_t i = 0; i < size; ++i) {
    const Time t = c[i];
    const bool live = t > now;
    c[kept] = t;
    kept += live ? 1 : 0;
    least = std::min(least, live ? t : kIdle);
  }
  run.resize(kept);
  stats_.active_jobs -= static_cast<std::int64_t>(size - kept);
  active_count_[s] = static_cast<std::int32_t>(kept);
  next_completion_[s] = least;
}

void MachinePool::advance(Time now) {
  assert(now >= stats_.clock || stats_.clock == std::numeric_limits<Time>::lowest());
  stats_.clock = now;

  std::size_t keep = 0;
  for (std::size_t i = 0; i < open_.size(); ++i) {
    const OpenMachine m = open_[i];
    const auto s = static_cast<std::size_t>(m.slot);
    // One flat load per open machine: the cached least completion tells
    // whether anything retires at this instant without touching the run.
    if (next_completion_[s] <= now) retire(s, now);
    if (active_count_[s] == 0 && seg_end_[s] != kNoJobs && slot_pinned_[s] == 0) {
      ++stats_.machines_closed;
      --stats_.open_machines;
      // Closed machines are never revisited; return the slot (run storage
      // included) to the free list so the next opening reuses it — memory
      // stays proportional to the peak concurrent load, not the history.
      free_slots_.push_back(m.slot);
      slot_of_[static_cast<std::size_t>(m.id)] = kNoSlot;
      continue;  // drop from the open set
    }
    open_[keep++] = m;
  }
  open_.resize(keep);
  // Recycle identity: every opening beyond the concurrent peak reused a slot.
  BUSYTIME_CHECK(stats_.open_machines == static_cast<std::int64_t>(open_.size()),
                 "open-machine counter diverged from the open set");
  BUSYTIME_CHECK(stats_.slots_recycled ==
                     stats_.machines_opened - stats_.peak_open_machines,
                 "slot recycling broke machines_opened - peak_open_machines");
}

OpenMachine MachinePool::open_machine(bool pinned) {
  const auto id = static_cast<MachineId>(slot_of_.size());
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    BUSYTIME_CHECK(running_[static_cast<std::size_t>(slot)].empty(),
                   "recycled a machine slot that still has running jobs");
    // only idle machines close, so the run is empty and the hot scalars
    // just reset in place
    ++stats_.slots_recycled;
  } else {
    slot = static_cast<std::int32_t>(running_.size());
    running_.emplace_back();
    next_completion_.push_back(kIdle);
    seg_end_.push_back(kNoJobs);
    active_count_.push_back(0);
    slot_pinned_.push_back(0);
  }
  const auto s = static_cast<std::size_t>(slot);
  next_completion_[s] = kIdle;
  seg_end_[s] = kNoJobs;
  active_count_[s] = 0;
  slot_pinned_[s] = pinned ? 1 : 0;
  slot_of_.push_back(slot);
  open_.push_back({id, slot});
  if (pinned) pinned_.push_back(id);
  ++stats_.machines_opened;
  ++stats_.open_machines;
  stats_.peak_open_machines =
      std::max(stats_.peak_open_machines, stats_.open_machines);
  return {id, slot};
}

void MachinePool::place(const OpenMachine& m, const Interval& iv) {
  assert(iv.start <= stats_.clock);
  BUSYTIME_CHECK(slot_of_[static_cast<std::size_t>(m.id)] == m.slot,
                 "placement through the handle of a closed machine");
  const auto s = static_cast<std::size_t>(m.slot);

  stats_.online_cost += extension(m, iv);
  // A fresh machine's kNoJobs and an idle gap both open a new segment.
  seg_end_[s] = iv.start >= seg_end_[s] ? iv.completion
                                        : std::max(seg_end_[s], iv.completion);
  ++stats_.jobs_assigned;

  // Only jobs still running at the stream clock occupy a capacity slot.
  // Batch replay places jobs at past instants, where a job may already have
  // completed — counting it as active would inflate the load counters and
  // could over-fill the run when a group legally chains more than g
  // non-overlapping jobs through the same slots.
  if (iv.completion > stats_.clock) {
    std::vector<Time>& run = running_[s];
    BUSYTIME_CHECK(run.size() < static_cast<std::size_t>(g_),
                   "placement would exceed the machine's capacity g");
    run.push_back(iv.completion);
    active_count_[s] = static_cast<std::int32_t>(run.size());
    next_completion_[s] = std::min(next_completion_[s], iv.completion);
    ++stats_.active_jobs;
    stats_.peak_active_jobs = std::max(stats_.peak_active_jobs, stats_.active_jobs);
  }
}

std::optional<Time> MachinePool::truncate(MachineId m, Time completion,
                                          bool preempt) {
  const Time now = stats_.clock;
  const std::size_t s = slot_of(m);
  std::vector<Time>& run = running_[s];

  const auto it = std::find(run.begin(), run.end(), completion);
  if (it == run.end()) return std::nullopt;  // nothing is running
  // Equal completions are interchangeable, so any copy may go.
  *it = run.back();
  run.pop_back();
  --stats_.active_jobs;

  // Every remaining running job spans the cancel instant (it started at or
  // before now and completes after), so the machine's busy tail beyond now
  // is exactly [now, greatest remaining completion) — and the old tail
  // reached seg_end.  The difference is the busy time nobody covers any
  // more.  The same pass finds the run's new least completion.
  Time covered = now;
  Time least = kIdle;
  for (const Time c : run) {
    covered = std::max(covered, c);
    least = std::min(least, c);
  }
  active_count_[s] = static_cast<std::int32_t>(run.size());
  next_completion_[s] = least;
  const Time refund = seg_end_[s] - covered;
  // Refund identity: the uncovered busy tail is exactly what the cancelled
  // job alone was paying for — it can never be negative and never reach
  // past the cancel instant.
  BUSYTIME_CHECK(refund >= 0, "truncate would refund busy time nobody paid");
  BUSYTIME_CHECK(stats_.active_jobs >= 0,
                 "truncate drove the running-job counter negative");
  seg_end_[s] = covered;

  stats_.online_cost -= refund;
  stats_.busy_time_refunded += refund;
  ++(preempt ? stats_.jobs_preempted : stats_.jobs_cancelled);
  return refund;
}

void MachinePool::unpin_all() {
  for (const MachineId id : pinned_) slot_pinned_[slot_of(id)] = 0;
  pinned_.clear();
}

}  // namespace busytime
