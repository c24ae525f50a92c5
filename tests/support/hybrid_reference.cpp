#include "support/hybrid_reference.hpp"

#include <cassert>
#include <utility>
#include <vector>

#include "algo/dispatch.hpp"
#include "core/instance.hpp"

namespace busytime {

namespace {

class ReferenceHybrid final : public PolicyScheduler<ReferenceHybrid> {
 public:
  ReferenceHybrid(int g, const PolicyParams& params)
      : PolicyScheduler(g), params_(params) {}

 private:
  friend class PolicyScheduler<ReferenceHybrid>;

  void handle(JobId id, const Job& job) {
    if (!pending_.empty() &&
        (job.start() - epoch_start_ >= params_.epoch_length ||
         static_cast<int>(pending_.size()) >= params_.max_batch)) {
      flush_batch();
    }
    if (pending_.empty()) epoch_start_ = job.start();
    pending_.push_back(ArrivalEvent{id, job});
  }

  /// A pending job is truncated in the batch, found by a linear scan; a
  /// placed one takes the pool path.
  bool handle_cancel(JobId id, const Job& job, Time at, bool preempt) {
    for (ArrivalEvent& ev : pending_) {
      if (ev.id != id) continue;
      ev.job.interval.completion = at;
      pool_.note_pending_cancel(preempt);
      return true;
    }
    return truncate_placed(id, job, preempt);
  }

  void handle_flush() {
    if (!pending_.empty()) flush_batch();
  }

  void flush_batch() {
    // Batch jobs are renumbered 0..k-1 in arrival order; groups come back
    // as machine ids of the stitched batch schedule.
    std::vector<Job> jobs;
    jobs.reserve(pending_.size());
    for (const ArrivalEvent& ev : pending_) jobs.push_back(ev.job);
    const Instance batch(std::move(jobs), g());
    const DispatchResult offline = solve_minbusy_auto(batch, /*threads=*/1);

    std::vector<OpenMachine> group_machine(
        static_cast<std::size_t>(offline.schedule.machine_count()));
    for (std::size_t k = 0; k < pending_.size(); ++k) {
      const MachineId local = offline.schedule.machine_of(static_cast<JobId>(k));
      assert(local != Schedule::kUnscheduled);
      OpenMachine& target = group_machine[static_cast<std::size_t>(local)];
      if (target.id == Schedule::kUnscheduled) target = pool_.open_machine(/*pinned=*/true);
      commit(pending_[k].id, target, pending_[k].job);
    }
    pool_.unpin_all();
    pending_.clear();
  }

  PolicyParams params_;
  std::vector<ArrivalEvent> pending_;
  Time epoch_start_ = 0;
};

}  // namespace

OracleReplay replay_hybrid_reference(const EventTrace& trace,
                                     const PolicyParams& params) {
  const Instance& base = trace.base();
  ReferenceHybrid sched(base.g(), params);
  sched.presize(base.size());
  const std::vector<CancelRecord>& cancels = trace.cancels();
  const auto retract = [&](const CancelRecord& record) {
    sched.on_cancel(record.job, base.job(record.job), record.at, record.preempt);
  };
  std::size_t c = 0;
  for (const JobId id : base.ids_by_start()) {
    const Job& job = base.job(id);
    for (; c < cancels.size() && retraction_precedes_arrival(cancels[c].at, job.start()); ++c)
      retract(cancels[c]);
    sched.on_arrival(id, job);
  }
  for (; c < cancels.size(); ++c) retract(cancels[c]);
  sched.flush();
  return {sched.take_schedule(), sched.stats()};
}

}  // namespace busytime
