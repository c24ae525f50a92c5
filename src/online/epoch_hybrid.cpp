#include "online/epoch_hybrid.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "algo/dispatch.hpp"
#include "api/registry.hpp"
#include "core/components.hpp"
#include "core/instance_view.hpp"

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

bool EpochHybrid::handle_cancel(JobId id, const Job& job, Time at, bool preempt) {
  // pending_ is in arrival order, so its starts never decrease: only the
  // run of pending jobs sharing job's start can hold it.
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), job.start(),
      [](const ArrivalEvent& ev, Time start) { return ev.job.start() < start; });
  for (; it != pending_.end() && it->job.start() == job.start(); ++it) {
    if (it->id != id) continue;
    // The batch's components must keep positive lengths; the base class
    // already rejected at <= start, so the truncated run [start, at) is
    // non-empty.
    it->job.interval.completion = at;
    pool_.note_pending_cancel(preempt);
    return true;
  }
  return truncate_placed(id, job, preempt);
}

void EpochHybrid::flush_batch() {
  // One pass over the batch in arrival order, whose starts never decrease,
  // cuts it into components (core/components' sweep); equal starts
  // overlap, so each component is a contiguous run of arrivals.
  // Sequential, in component order: batches are small (<= max_batch) and
  // latency-bound, so a pool fan-out per epoch would cost more than it
  // saves — and a threads=1 stream replay must stay an exact sequential
  // path.  Sharded replay parallelizes across shards instead.
  assert(!pending_.empty());
  const auto& candidates = SolverRegistry::instance().dispatchable();
  for_each_component(
      pending_.size(), [&](std::size_t k) -> const Job& { return pending_[k].job; },
      [&](std::size_t lo, std::size_t hi) { solve_and_commit(lo, hi, candidates); });
  pool_.unpin_all();
  pending_.clear();
}

void EpochHybrid::solve_and_commit(std::size_t lo, std::size_t hi,
                                   const std::vector<const SolverInfo*>& candidates) {
  // The component's start order as positions in pending_: arrival order
  // with each run of equal starts ordered by (completion, arrival).
  const std::size_t count = hi - lo;
  order_.resize(count);
  std::iota(order_.begin(), order_.end(), static_cast<std::uint32_t>(lo));
  const auto completion = [&](std::uint32_t a) { return pending_[a].job.completion(); };
  for (std::size_t run = 0, k = 1; k <= count; ++k) {
    if (k < count && pending_[lo + k].job.start() == pending_[lo + run].job.start()) continue;
    order_run_by_completion(order_.data() + run, k - run, completion);
    run = k;
  }

  // The component as a start-ordered sub-instance, solved by the
  // dispatcher's per-component step: exactly the sub-instance and solver a
  // batch InstanceView and solve_minbusy_auto would give it.
  InstanceClass cls;
  const Instance sub = InstanceView::classified_component(
      count, [&](std::size_t k) -> const Job& { return pending_[order_[k]].job; }, g(), cls);
  Schedule part;
  solve_component(candidates, sub, cls, part);

  // Each job's machine in the component schedule, by arrival.
  local_machine_.resize(count);
  MachineId machines = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const MachineId m = part.machine_of(static_cast<JobId>(k));
    assert(m != Schedule::kUnscheduled);  // MinBusy schedules are full
    local_machine_[order_[k] - lo] = m;
    machines = std::max(machines, m + 1);
  }
  // Commit in arrival order, so the pool's incremental busy accounting sees
  // monotone placements: each machine of the component schedule opens a
  // fresh pinned machine at its first job.  Pinning keeps a group's
  // machine open across the idle gaps an offline group may contain.
  machines_.assign(static_cast<std::size_t>(machines), OpenMachine{});
  for (std::size_t a = lo; a < hi; ++a) {
    OpenMachine& target = machines_[static_cast<std::size_t>(local_machine_[a - lo])];
    if (target.id == Schedule::kUnscheduled) target = pool_.open_machine(/*pinned=*/true);
    commit(pending_[a].id, target, pending_[a].job);
  }
}

}  // namespace busytime
