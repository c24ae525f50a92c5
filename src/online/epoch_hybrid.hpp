// Epoch-batched hybrid policy: delayed commitment + offline re-optimization.
//
// Pure greedy online policies commit at the arrival instant and pay for it;
// the hybrid trades a bounded decision latency (at most one epoch) for the
// packing quality of the paper's offline algorithms.  Arrivals accumulate in
// a pending batch; when an arrival falls more than `epoch_length` after the
// batch's first start (or the batch hits `max_batch` jobs), the batch is
// solved as an offline MinBusy instance by solve_minbusy_auto — which picks
// the strongest applicable algorithm per connected component — and the
// computed machine groups are materialized onto fresh machines of the pool.
//
// Job intervals are never shifted: the hybrid models a scheduler with one
// epoch of lookahead, and its cost is directly comparable to the greedy
// policies' on the same stream.  Within a batch the offline solver respects
// capacity g; across batches machines are disjoint, so the result is a valid
// schedule of the full instance.
#pragma once

#include <vector>

#include "online/event.hpp"
#include "online/scheduler.hpp"

namespace busytime {

class EpochHybrid final : public OnlineScheduler {
 public:
  EpochHybrid(int g, const PolicyParams& params)
      : OnlineScheduler(g), params_(params) {}

  std::string name() const override { return to_string(OnlinePolicy::kEpochHybrid); }

  /// Re-optimizes and places the still-pending batch (end of stream).
  void flush() override;

 protected:
  void handle(JobId id, const Job& job) override;

  /// Retractions of jobs still pending in the batch truncate the pending
  /// copy before it is ever placed (no busy time was charged, so nothing is
  /// refunded); jobs already materialized fall through to the pool path.
  /// The pending copy is found by binary search for job.start() and a scan
  /// of that run of equal starts, so `job` must be the job as it arrived.
  bool handle_cancel(JobId id, const Job& job, Time at, bool preempt) override;

 private:
  void flush_batch();

  PolicyParams params_;
  /// Pending arrivals of the current epoch, in arrival order, so in
  /// non-decreasing start order (on_arrival enforces it); a retraction
  /// only ever shortens a pending job's completion.
  std::vector<ArrivalEvent> pending_;
  Time epoch_start_ = 0;
};

}  // namespace busytime
