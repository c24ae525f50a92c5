#include "support/online_oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace busytime {

namespace {

struct OracleMachine {
  /// Placed jobs in placement order, which is start order.
  std::vector<Interval> jobs;
  /// The trace id of each job of `jobs`.
  std::vector<JobId> ids;
  bool open = true;
};

/// Union length of intervals listed in non-decreasing start order.
Time busy_time_of(const std::vector<Interval>& jobs) {
  Time total = 0;
  Time lo = 0;
  Time hi = 0;
  bool any = false;
  for (const Interval& iv : jobs) {
    if (any && iv.start <= hi) {
      hi = std::max(hi, iv.completion);
      continue;
    }
    if (any) total += hi - lo;
    lo = iv.start;
    hi = iv.completion;
    any = true;
  }
  return any ? total + (hi - lo) : total;
}

/// Jobs of `m` running at `t`: started at or before t, completing after.
std::int64_t running_at(const OracleMachine& m, Time t) {
  std::int64_t count = 0;
  for (const Interval& iv : m.jobs) count += iv.start <= t && t < iv.completion ? 1 : 0;
  return count;
}

class GreedyOracle {
 public:
  GreedyOracle(std::size_t n, int g, OnlinePolicy policy)
      : g_(g), policy_(policy), schedule_(n), retracted_(n, 0) {}

  void arrive(JobId id, const Job& job) {
    advance(job.start());
    const MachineId m = choose(job.interval);
    const MachineId target = m != Schedule::kUnscheduled ? m : open_machine();
    OracleMachine& machine = machines_[static_cast<std::size_t>(target)];
    const Time before = busy_time_of(machine.jobs);
    machine.jobs.push_back(job.interval);
    machine.ids.push_back(id);
    stats_.online_cost += busy_time_of(machine.jobs) - before;
    ++stats_.jobs_assigned;
    schedule_.assign(id, target);
    recount(job.start());
  }

  void retract(const CancelRecord& record, const Job& job) {
    advance(record.at);
    const auto j = static_cast<std::size_t>(record.job);
    const MachineId m = schedule_.machine_of(record.job);
    if (record.at <= job.start() || record.at >= job.completion() || retracted_[j] ||
        m == Schedule::kUnscheduled) {
      ++stats_.cancels_ignored;
      return;
    }
    OracleMachine& machine = machines_[static_cast<std::size_t>(m)];
    const auto pos = static_cast<std::size_t>(
        std::find(machine.ids.begin(), machine.ids.end(), record.job) -
        machine.ids.begin());
    const Time before = busy_time_of(machine.jobs);
    machine.jobs[pos].completion = record.at;
    const Time refund = before - busy_time_of(machine.jobs);
    stats_.online_cost -= refund;
    stats_.busy_time_refunded += refund;
    ++(record.preempt ? stats_.jobs_preempted : stats_.jobs_cancelled);
    retracted_[j] = 1;
    recount(record.at);
  }

  OracleReplay finish() && { return {std::move(schedule_), stats_}; }

 private:
  /// Closes every open machine that runs no job at `t`.
  void advance(Time t) {
    stats_.clock = t;
    for (OracleMachine& m : machines_) {
      if (!m.open || running_at(m, t) > 0) continue;
      m.open = false;
      ++stats_.machines_closed;
      --stats_.open_machines;
      ++free_slots_;
    }
    recount(t);
  }

  /// Recomputes the running-job count over the open machines.
  void recount(Time t) {
    std::int64_t active = 0;
    for (const OracleMachine& m : machines_)
      if (m.open) active += running_at(m, t);
    stats_.active_jobs = active;
    stats_.peak_active_jobs = std::max(stats_.peak_active_jobs, active);
  }

  /// The policy's machine for `iv`, or kUnscheduled when none is open with
  /// a free slot.
  MachineId choose(const Interval& iv) const {
    MachineId best = Schedule::kUnscheduled;
    Time best_ext = std::numeric_limits<Time>::max();
    for (std::size_t i = 0; i < machines_.size(); ++i) {
      const OracleMachine& m = machines_[i];
      if (!m.open || running_at(m, iv.start) >= g_) continue;
      if (policy_ == OnlinePolicy::kFirstFit) return static_cast<MachineId>(i);
      std::vector<Interval> with = m.jobs;
      with.push_back(iv);
      const Time ext = busy_time_of(with) - busy_time_of(m.jobs);
      if (ext < best_ext) {
        best = static_cast<MachineId>(i);
        best_ext = ext;
      }
    }
    return best;
  }

  MachineId open_machine() {
    machines_.emplace_back();
    if (free_slots_ > 0) {
      --free_slots_;
      ++stats_.slots_recycled;
    }
    ++stats_.machines_opened;
    ++stats_.open_machines;
    stats_.peak_open_machines = std::max(stats_.peak_open_machines, stats_.open_machines);
    return static_cast<MachineId>(machines_.size() - 1);
  }

  int g_;
  OnlinePolicy policy_;
  std::vector<OracleMachine> machines_;
  Schedule schedule_;
  std::vector<char> retracted_;
  std::int64_t free_slots_ = 0;
  EngineStats stats_;
};

}  // namespace

OracleReplay replay_greedy_oracle(const EventTrace& trace, OnlinePolicy policy) {
  if (policy != OnlinePolicy::kFirstFit && policy != OnlinePolicy::kBestFit)
    throw std::invalid_argument("the oracle replays the greedy policies only");
  const Instance& base = trace.base();
  GreedyOracle oracle(base.size(), base.g(), policy);
  const std::vector<CancelRecord>& cancels = trace.cancels();
  std::size_t c = 0;
  for (const JobId id : base.ids_by_start()) {
    const Job& job = base.job(id);
    for (; c < cancels.size() && retraction_precedes_arrival(cancels[c].at, job.start()); ++c)
      oracle.retract(cancels[c], base.job(cancels[c].job));
    oracle.arrive(id, job);
  }
  for (; c < cancels.size(); ++c) oracle.retract(cancels[c], base.job(cancels[c].job));
  return std::move(oracle).finish();
}

}  // namespace busytime
