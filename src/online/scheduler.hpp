// OnlineScheduler interface and the greedy online policies.
//
// An OnlineScheduler consumes a time-ordered event stream — arrivals plus
// cancellations/preemptions — and commits each job to a machine; the
// resulting Schedule is index-compatible with the originating Instance, so
// offline cost accounting, validation and the Observation 2.1 bounds all
// apply unchanged (against the residual instance when jobs were retracted).
//
// Policies:
//   first-fit     arrival-order FirstFit — the paper's 4-approximation
//                 baseline [13] run incrementally: lowest-id open machine
//                 with a free slot, else a fresh machine.
//   best-fit      minimal busy-interval extension among feasible open
//                 machines (reuse is never worse than opening: an open
//                 machine's busy segment always reaches past the arrival
//                 instant, so extension < length).
//   epoch-hybrid  delayed commitment (online/epoch_hybrid.hpp): batches
//                 arrivals into epochs and re-optimizes each batch with the
//                 offline dispatcher.
//
// All policies process retractions the same way once a job is placed: the
// machine's capacity slot frees at the cancel instant and the busy tail no
// remaining job covers is refunded (MachinePool::truncate).  The hybrid
// additionally truncates jobs still pending in its epoch batch before they
// are ever placed.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "online/engine_stats.hpp"
#include "online/machine_pool.hpp"

namespace busytime {

/// Which online policy to run (reporting + factory).
enum class OnlinePolicy { kFirstFit, kBestFit, kEpochHybrid };

std::string to_string(OnlinePolicy policy);

class OnlineScheduler {
 public:
  explicit OnlineScheduler(int g) : pool_(g), schedule_(0) {}
  virtual ~OnlineScheduler() = default;

  /// Feeds the next arrival.  Event times must be non-decreasing across
  /// on_arrival/on_cancel calls; out-of-order events throw
  /// std::invalid_argument.  `id` indexes the job in the originating
  /// instance (ids may arrive in any order as long as times are monotone).
  void on_arrival(JobId id, const Job& job);

  /// Feeds a cancellation (preempt = false) or preemption (preempt = true):
  /// job `id` — which previously arrived as `job` — stops at `at`, its
  /// remaining run is retracted, and the uncovered busy tail is refunded.
  /// Events outside the job's run (at <= start, at >= completion, or a
  /// second retraction) are counted as ignored.  `at` must be monotone with
  /// the other events.
  void on_cancel(JobId id, const Job& job, Time at, bool preempt = false);

  /// Commits any deferred jobs (no-op for the pure greedy policies).  Must
  /// be called once after the last event before reading the schedule.
  virtual void flush() {}

  /// Advances the pool clock without an arrival: retires completed jobs and
  /// closes idle machines, exactly as the next arrival's implicit advance
  /// would.  The sharded stream driver uses this to finalize a shard so its
  /// pool ends in the state the sequential stream's pool passes through at
  /// the next shard's first arrival.  `now` must be monotone.
  void advance_clock(Time now) { pool_.advance(now); }

  virtual std::string name() const = 0;

  const Schedule& schedule() const noexcept { return schedule_; }
  const EngineStats& stats() const noexcept { return pool_.stats(); }
  int g() const noexcept { return pool_.g(); }

 protected:
  /// Policy hook: decide (or defer) the machine for `job`.  The pool clock
  /// has already been advanced to job.start().
  virtual void handle(JobId id, const Job& job) = 0;

  /// Policy hook for an effective retraction (the pool clock is at `at`,
  /// which lies strictly inside the job's run, and the job has not been
  /// retracted before).  Returns true when the retraction took effect.  The
  /// base implementation truncates the placed job on its machine; policies
  /// that defer commitment override it to retract pending jobs first.
  virtual bool handle_cancel(JobId id, const Job& job, Time at, bool preempt);

  /// Places `job` on machine `m` and records the assignment.
  void commit(JobId id, MachineId m, const Job& job) {
    pool_.place(m, job.interval);
    schedule_.assign(id, m);
  }

  MachinePool pool_;
  Schedule schedule_;

 private:
  bool started_ = false;
  Time last_time_ = 0;
  /// Jobs already effectively retracted (second retractions are no-ops).
  std::vector<char> retracted_;
};

/// Online first-fit: first open machine with a free slot, in opening order.
class OnlineFirstFit final : public OnlineScheduler {
 public:
  using OnlineScheduler::OnlineScheduler;
  std::string name() const override { return to_string(OnlinePolicy::kFirstFit); }

 protected:
  void handle(JobId id, const Job& job) override;
};

/// Online best-fit: feasible open machine with the smallest busy-time
/// extension; ties break toward the lowest machine id.
class OnlineBestFit final : public OnlineScheduler {
 public:
  using OnlineScheduler::OnlineScheduler;
  std::string name() const override { return to_string(OnlinePolicy::kBestFit); }

 protected:
  void handle(JobId id, const Job& job) override;
};

/// Tuning knobs for policies that have any (currently the epoch hybrid).
struct PolicyParams {
  /// Epoch width of the hybrid: pending jobs are re-optimized offline
  /// whenever an arrival falls `epoch_length` past the epoch's first start.
  Time epoch_length = 1024;
  /// Hard cap on a batch, bounding the per-epoch offline solve.
  int max_batch = 4096;
};

std::unique_ptr<OnlineScheduler> make_scheduler(OnlinePolicy policy, int g,
                                                const PolicyParams& params = {});

}  // namespace busytime
