#include "core/validate.hpp"

#include <cassert>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "intervalgraph/sweepline.hpp"

namespace busytime {

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "machine " << machine << " runs " << concurrency << " jobs at time " << time;
  return os.str();
}

std::optional<Violation> find_violation(const Instance& inst, const Schedule& s) {
  assert(inst.size() == s.size());
  const auto per_machine = s.jobs_per_machine();
  for (std::size_t m = 0; m < per_machine.size(); ++m) {
    if (per_machine[m].size() <= static_cast<std::size_t>(inst.g())) continue;
    std::vector<Interval> ivs;
    ivs.reserve(per_machine[m].size());
    for (JobId j : per_machine[m]) ivs.push_back(inst.job(j).interval);
    const auto peak = peak_overlap(ivs);
    if (peak.count > inst.g()) {
      return Violation{static_cast<MachineId>(m), peak.time, peak.count};
    }
  }
  return std::nullopt;
}

bool is_valid(const Instance& inst, const Schedule& s) {
  return !find_violation(inst, s).has_value();
}

namespace {

/// Union length of intervals fed in non-decreasing start order (touching
/// pieces merge, as in union_intervals).  Before the first interval the
/// open piece is the empty [lowest, lowest), which the first one closes
/// with length 0.
struct SortedUnion {
  Time lo = std::numeric_limits<Time>::lowest();
  Time hi = std::numeric_limits<Time>::lowest();
  Time closed = 0;  ///< length of the pieces before [lo, hi)

  void add(Time start, Time completion) {
    if (start > hi) {
      closed += hi - lo;
      lo = start;
      hi = completion;
    } else if (completion > hi) {
      hi = completion;
    }
  }

  Time length() const noexcept { return closed + (hi - lo); }
};

/// One machine in the sweep: its busy union so far and, when it holds more
/// than g jobs, g completion slots.  Once full, the slots hold every job
/// seen so far on the machine that still runs at the current start; a job
/// left out has ended by then, and so by every later start.
struct MachineSweep {
  SortedUnion busy;
  std::size_t jobs = 0;  ///< jobs on the machine, counted before the sweep
  Time* top = nullptr;   ///< its g arena slots; null when jobs <= g
  int filled = 0;        ///< slots of top in use
};

/// A job [start, completion) joins a machine whose g slots are full: one
/// of them must have ended by `start`, and the job takes its place.  False
/// when all g still run, so the job is a (g + 1)-th concurrent one.  The
/// scan is branch-free, O(g) per job.
bool replace_ended_slot(Time* top, int g, Time start, Time completion) {
  int at = g;
  for (int i = 0; i < g; ++i) at = top[i] <= start ? i : at;
  if (at == g) return false;
  top[at] = completion;
  return true;
}

}  // namespace

ScheduleMeasure measure_schedule(const Instance& inst, const Schedule& s) {
  if (s.size() != inst.size())
    throw std::invalid_argument("measure_schedule: schedule has " +
                                std::to_string(s.size()) + " slots for " +
                                std::to_string(inst.size()) + " jobs");
  const std::vector<Job>& jobs = inst.jobs();
  const std::vector<MachineId>& machine_of = s.assignment();
  const int g = inst.g();
  const auto cap = static_cast<std::size_t>(g);

  ScheduleMeasure out;
  out.bounds.g = g;

  // Count each machine's jobs, then give g arena slots to each machine
  // holding more than g: only there can g + 1 jobs run at once.
  std::vector<MachineSweep> machines(static_cast<std::size_t>(s.machine_count()));
  for (const MachineId m : machine_of)
    if (m != Schedule::kUnscheduled) ++machines[static_cast<std::size_t>(m)].jobs;
  std::size_t slots = 0;
  for (const MachineSweep& machine : machines) {
    out.throughput += static_cast<std::int64_t>(machine.jobs);
    if (machine.jobs > cap) slots += cap;
  }
  std::vector<Time> arena(slots);
  Time* next = arena.data();
  for (MachineSweep& machine : machines) {
    if (machine.jobs <= cap) continue;
    machine.top = next;
    next += g;
  }

  // One sweep in start order: the instance's length and span, and each
  // scheduled job's machine union and capacity check.
  SortedUnion span;
  Time length = 0;
  bool valid = true;
  for (const JobId id : inst.ids_by_start()) {
    const auto j = static_cast<std::size_t>(id);
    const Time start = jobs[j].start();
    const Time completion = jobs[j].completion();
    length += completion - start;
    span.add(start, completion);
    const MachineId m = machine_of[j];
    if (m == Schedule::kUnscheduled) continue;
    MachineSweep& machine = machines[static_cast<std::size_t>(m)];
    machine.busy.add(start, completion);
    if (machine.top == nullptr || !valid) continue;
    if (machine.filled < g)
      machine.top[machine.filled++] = completion;
    else
      valid = replace_ended_slot(machine.top, g, start, completion);
  }
  out.valid = valid;
  out.bounds.length = length;
  out.bounds.span = span.length();
  out.bounds.parallelism_num = length;
  for (const MachineSweep& machine : machines) out.cost += machine.busy.length();
  return out;
}

int max_concurrency(const Instance& inst) {
  return peak_overlap(inst.intervals()).count;
}

}  // namespace busytime
