// Epoch-batched hybrid policy: delayed commitment + offline re-optimization.
//
// Pure greedy online policies commit at the arrival instant and pay for it;
// the hybrid trades a bounded decision latency (at most one epoch) for the
// packing quality of the paper's offline algorithms.  Arrivals accumulate in
// a pending batch; when an arrival falls more than `epoch_length` after the
// batch's first start (or the batch hits `max_batch` jobs), the batch is
// solved as an offline MinBusy instance with solve_minbusy_auto's routing —
// the strongest applicable algorithm per connected component — and the
// computed machine groups are materialized onto fresh machines of the pool.
//
// The flush works straight from the pending jobs, in one pass over them in
// arrival order: it cuts the components at the running frontier
// (for_each_component, the sweep component_bounds runs), orders each run of
// equal starts in a component, copies and classifies the component into a
// start-ordered sub-instance (InstanceView::classified_component), solves it
// with the dispatcher's per-component step (solve_component), and commits
// its jobs in arrival order.  No batch Instance, view or stitched schedule is built;
// the schedules and machine openings are exactly those of
// solve_minbusy_auto on the batch as an Instance in arrival order.
//
// Job intervals are never shifted: the hybrid models a scheduler with one
// epoch of lookahead, and its cost is directly comparable to the greedy
// policies' on the same stream.  Within a batch the offline solver respects
// capacity g; across batches machines are disjoint, so the result is a valid
// schedule of the full instance.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "online/event.hpp"
#include "online/scheduler.hpp"

namespace busytime {

struct SolverInfo;

class EpochHybrid final : public PolicyScheduler<EpochHybrid> {
 public:
  EpochHybrid(int g, const PolicyParams& params)
      : PolicyScheduler(g), params_(params) {}

 private:
  friend class PolicyScheduler<EpochHybrid>;

  void handle(JobId id, const Job& job);

  /// Retractions of jobs still pending in the batch truncate the pending
  /// copy before it is ever placed (no busy time was charged, so nothing is
  /// refunded); jobs already materialized fall through to the pool path.
  /// The pending copy is found by binary search for job.start() and a scan
  /// of that run of equal starts, so `job` must be the job as it arrived.
  bool handle_cancel(JobId id, const Job& job, Time at, bool preempt);

  /// Re-optimizes and places the still-pending batch (end of stream).
  void handle_flush() {
    if (!pending_.empty()) flush_batch();
  }

  void flush_batch();
  /// Orders, solves and commits the batch component pending_[lo, hi).
  void solve_and_commit(std::size_t lo, std::size_t hi,
                        const std::vector<const SolverInfo*>& candidates);

  PolicyParams params_;
  /// Pending arrivals of the current epoch, in arrival order, so in
  /// non-decreasing start order (on_arrival enforces it); a retraction
  /// only ever shortens a pending job's completion.
  std::vector<ArrivalEvent> pending_;
  Time epoch_start_ = 0;
  /// Flush scratch, kept across batches: a component's start order as
  /// positions in pending_, its machines by arrival, and the pool machine
  /// each machine of its schedule opened.
  std::vector<std::uint32_t> order_;
  std::vector<MachineId> local_machine_;
  std::vector<OpenMachine> machines_;
};

}  // namespace busytime
