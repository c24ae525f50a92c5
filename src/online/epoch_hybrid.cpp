#include "online/epoch_hybrid.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "algo/dispatch.hpp"
#include "core/instance.hpp"

namespace busytime {

void EpochHybrid::handle(JobId id, const Job& job) {
  if (!pending_.empty() &&
      (job.start() - epoch_start_ >= params_.epoch_length ||
       static_cast<int>(pending_.size()) >= params_.max_batch)) {
    flush_batch();
  }
  if (pending_.empty()) epoch_start_ = job.start();
  pending_.push_back(ArrivalEvent{id, job});
}

void EpochHybrid::flush() {
  if (!pending_.empty()) flush_batch();
}

bool EpochHybrid::handle_cancel(JobId id, const Job& job, Time at, bool preempt) {
  // pending_ is in arrival order, so its starts never decrease: only the
  // run of pending jobs sharing job's start can hold it.
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), job.start(),
      [](const ArrivalEvent& ev, Time start) { return ev.job.start() < start; });
  for (; it != pending_.end() && it->job.start() == job.start(); ++it) {
    if (it->id != id) continue;
    // The batch instance must keep positive lengths; the base class already
    // rejected at <= start, so the truncated run [start, at) is non-empty.
    it->job.interval.completion = at;
    pool_.note_pending_cancel(preempt);
    return true;
  }
  return OnlineScheduler::handle_cancel(id, job, at, preempt);
}

void EpochHybrid::flush_batch() {
  // Re-optimize the batch with the offline dispatcher.  Batch jobs are
  // renumbered 0..k-1 in arrival order; groups come back as machine ids of
  // the batch schedule.
  std::vector<Job> jobs;
  jobs.reserve(pending_.size());
  for (const ArrivalEvent& ev : pending_) jobs.push_back(ev.job);
  const Instance batch(std::move(jobs), g());
  // Sequential dispatch: batches are small (<= max_batch) and latency-bound,
  // so a pool fan-out per epoch would cost more than it saves — and a
  // threads=1 stream replay must stay an exact sequential path.  Sharded
  // replay parallelizes across shards instead.
  const DispatchResult offline = solve_minbusy_auto(batch, /*threads=*/1);

  // Materialize each offline group onto a fresh pinned machine, then replay
  // the batch in start order so the pool's incremental busy accounting sees
  // monotone placements.  Pinning keeps a group's machine open across the
  // idle gaps an offline group may contain.
  std::vector<MachineId> group_machine(
      static_cast<std::size_t>(offline.schedule.machine_count()),
      Schedule::kUnscheduled);
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    const MachineId local = offline.schedule.machine_of(static_cast<JobId>(k));
    assert(local != Schedule::kUnscheduled);  // MinBusy schedules are full
    auto& target = group_machine[static_cast<std::size_t>(local)];
    if (target == Schedule::kUnscheduled) target = pool_.open_machine(/*pinned=*/true);
    commit(pending_[k].id, target, pending_[k].job);
  }
  pool_.unpin_all();
  pending_.clear();
}

}  // namespace busytime
