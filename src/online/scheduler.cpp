#include "online/scheduler.hpp"

#include <sstream>
#include <stdexcept>

namespace busytime {

void OnlineScheduler::throw_out_of_order(const char* what, JobId id,
                                         Time at) const {
  std::ostringstream oss;
  oss << "out-of-order " << what << ": job " << id << " at " << at
      << " but the stream is already at " << last_time_;
  throw std::invalid_argument(oss.str());
}

bool OnlineScheduler::begin_cancel(JobId id, const Job& job, Time at,
                                   bool preempt) {
  check_order(at, id, preempt ? "preemption" : "cancellation");
  schedule_.ensure_size(static_cast<std::size_t>(id) + 1);
  if (retracted_.size() < schedule_.size()) retracted_.resize(schedule_.size(), 0);
  pool_.advance(at);

  // No-op retractions: the job already finished (at >= completion), never
  // started its run (at <= start), or was retracted before.
  if (at <= job.start() || at >= job.completion() ||
      retracted_[static_cast<std::size_t>(id)]) {
    pool_.note_ignored_cancel();
    return false;
  }
  return true;
}

bool OnlineScheduler::truncate_placed(JobId id, const Job& job, bool preempt) {
  const MachineId m = schedule_.machine_of(id);
  if (m == Schedule::kUnscheduled) return false;  // never arrived: nothing to undo
  return pool_.truncate(m, job.completion(), preempt).has_value();
}

std::string to_string(OnlinePolicy policy) {
  switch (policy) {
    case OnlinePolicy::kFirstFit: return "online-first-fit";
    case OnlinePolicy::kBestFit: return "online-best-fit";
    case OnlinePolicy::kEpochHybrid: return "epoch-hybrid";
  }
  return "unknown";
}

}  // namespace busytime
