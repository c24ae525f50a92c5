// The online schedulers and the greedy online policies.
//
// An online scheduler consumes a time-ordered event stream — arrivals plus
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
//
// Each policy is a final class over PolicyScheduler<Policy>, whose
// on_arrival/on_cancel/flush run the shared event steps and then call the
// policy's handle/handle_cancel/handle_flush directly.  The stream driver's
// replay loop is a template over the final class, so no event takes a
// virtual call.
#pragma once

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/schedule.hpp"
#include "online/engine_stats.hpp"
#include "online/machine_pool.hpp"

namespace busytime {

/// Which online policy to run (replay_stream picks the class by it).
enum class OnlinePolicy { kFirstFit, kBestFit, kEpochHybrid };

std::string to_string(OnlinePolicy policy);

/// Tuning knobs for policies that have any (currently the epoch hybrid).
struct PolicyParams {
  /// Epoch width of the hybrid: pending jobs are re-optimized offline
  /// whenever an arrival falls `epoch_length` past the epoch's first start.
  Time epoch_length = 1024;
  /// Hard cap on a batch, bounding the per-epoch offline solve.
  int max_batch = 4096;
};

/// The state and event steps every policy shares: the machine pool, the
/// schedule, the stream's order check and the retraction marks.  The event
/// entry points live in PolicyScheduler<Policy>, so every call reaches the
/// policy's own steps.
class OnlineScheduler {
 public:
  /// Advances the pool clock without an arrival: retires completed jobs and
  /// closes idle machines, exactly as the next arrival's implicit advance
  /// would.  The sharded stream driver uses this to finalize a shard so its
  /// pool ends in the state the sequential stream's pool passes through at
  /// the next shard's first arrival.  `now` must be monotone.
  void advance_clock(Time now) { pool_.advance(now); }

  /// Sizes the schedule for job ids below `jobs` up front, so no arrival
  /// grows it (the retraction marks follow at the first retraction).
  void presize(std::size_t jobs) { schedule_.ensure_size(jobs); }

  const Schedule& schedule() const noexcept { return schedule_; }
  /// Moves the schedule out; the scheduler is spent afterwards.
  Schedule take_schedule() noexcept { return std::move(schedule_); }
  const EngineStats& stats() const noexcept { return pool_.stats(); }
  int g() const noexcept { return pool_.g(); }

 protected:
  explicit OnlineScheduler(int g) : pool_(g) {}
  ~OnlineScheduler() = default;

  /// The event steps every policy shares.  begin_arrival checks the order,
  /// sizes the schedule for `id` and advances the pool to the job's start.
  /// begin_cancel does the same for a retraction and returns true when the
  /// retraction can take effect (start < at < completion, not retracted
  /// before); otherwise it counts the event as ignored.  end_cancel records
  /// the policy's verdict.
  void begin_arrival(JobId id, const Job& job) {
    check_order(job.start(), id, "arrival");
    schedule_.ensure_size(static_cast<std::size_t>(id) + 1);
    pool_.advance(job.start());
  }
  bool begin_cancel(JobId id, const Job& job, Time at, bool preempt);
  void end_cancel(JobId id, bool effective) {
    if (effective) {
      retracted_[static_cast<std::size_t>(id)] = 1;
    } else {
      pool_.note_ignored_cancel();
    }
  }

  /// The retraction of a placed job: truncates it on its machine.  Returns
  /// false when the job never arrived or is not running there.
  bool truncate_placed(JobId id, const Job& job, bool preempt);

  /// Places `job` on machine `m` and records the assignment.
  void commit(JobId id, const OpenMachine& m, const Job& job) {
    pool_.place(m, job.interval);
    schedule_.assign(id, m.id);
  }

  MachinePool pool_;
  Schedule schedule_;

 private:
  void check_order(Time at, JobId id, const char* what) {
    if (started_ && at < last_time_) throw_out_of_order(what, id, at);
    started_ = true;
    last_time_ = at;
  }
  [[noreturn]] void throw_out_of_order(const char* what, JobId id, Time at) const;

  bool started_ = false;
  Time last_time_ = 0;
  /// Jobs already effectively retracted (second retractions are no-ops).
  std::vector<char> retracted_;
};

/// The event entry points of policy `Policy` (a final class deriving from
/// PolicyScheduler<Policy>): the shared steps, then the policy's own
/// handle(id, job), handle_cancel(id, job, at, preempt) and handle_flush(),
/// called directly.  A policy that defers nothing inherits handle_cancel,
/// which truncates the placed job, and the no-op handle_flush.
template <class Policy>
class PolicyScheduler : public OnlineScheduler {
 public:
  /// Feeds the next arrival.  Event times must be non-decreasing across
  /// on_arrival/on_cancel calls; out-of-order events throw
  /// std::invalid_argument.  `id` indexes the job in the originating
  /// instance (ids may arrive in any order as long as times are monotone).
  void on_arrival(JobId id, const Job& job) {
    begin_arrival(id, job);
    self().handle(id, job);
  }

  /// Feeds a cancellation (preempt = false) or preemption (preempt = true):
  /// job `id` — which previously arrived as `job` — stops at `at`, its
  /// remaining run is retracted, and the uncovered busy tail is refunded.
  /// `job` must be the job exactly as it arrived: the epoch hybrid finds a
  /// pending job by its start, and every policy reads its completion.
  /// Events outside the job's run (at <= start, at >= completion, or a
  /// second retraction) are counted as ignored.  `at` must be monotone with
  /// the other events.
  void on_cancel(JobId id, const Job& job, Time at, bool preempt = false) {
    if (begin_cancel(id, job, at, preempt))
      end_cancel(id, self().handle_cancel(id, job, at, preempt));
  }

  /// Commits any deferred jobs (the epoch hybrid's pending batch).  Must be
  /// called once after the last event before reading the schedule.
  void flush() { self().handle_flush(); }

 protected:
  using OnlineScheduler::OnlineScheduler;

  bool handle_cancel(JobId id, const Job& job, Time /*at*/, bool preempt) {
    return truncate_placed(id, job, preempt);
  }
  void handle_flush() {}

 private:
  Policy& self() { return static_cast<Policy&>(*this); }
};

/// Online first-fit: first open machine with a free slot, in opening order.
class OnlineFirstFit final : public PolicyScheduler<OnlineFirstFit> {
 public:
  explicit OnlineFirstFit(int g, const PolicyParams& /*unused*/ = {})
      : PolicyScheduler(g) {}

 private:
  friend class PolicyScheduler<OnlineFirstFit>;
  void handle(JobId id, const Job& job) {
    for (const OpenMachine& m : pool_.open_machines()) {
      if (pool_.fits(m)) return commit(id, m, job);
    }
    commit(id, pool_.open_machine(), job);
  }
};

/// Online best-fit: feasible open machine with the smallest busy-time
/// extension; ties break toward the lowest machine id.
class OnlineBestFit final : public PolicyScheduler<OnlineBestFit> {
 public:
  explicit OnlineBestFit(int g, const PolicyParams& /*unused*/ = {})
      : PolicyScheduler(g) {}

 private:
  friend class PolicyScheduler<OnlineBestFit>;
  void handle(JobId id, const Job& job) {
    const OpenMachine* best = nullptr;
    Time best_ext = std::numeric_limits<Time>::max();
    for (const OpenMachine& m : pool_.open_machines()) {
      if (!pool_.fits(m)) continue;
      const Time ext = pool_.extension(m, job.interval);
      if (ext < best_ext) {
        best = &m;
        best_ext = ext;
      }
    }
    commit(id, best != nullptr ? *best : pool_.open_machine(), job);
  }
};

}  // namespace busytime
