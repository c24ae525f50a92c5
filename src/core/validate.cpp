#include "core/validate.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
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
/// pieces merge, as in union_intervals).
class SortedUnion {
 public:
  explicit SortedUnion(const Interval& first)
      : lo_(first.start), hi_(first.completion) {}

  void add(const Interval& iv) {
    if (iv.start > hi_) {
      total_ += hi_ - lo_;
      lo_ = iv.start;
      hi_ = iv.completion;
    } else if (iv.completion > hi_) {
      hi_ = iv.completion;
    }
  }

  Time length() const noexcept { return total_ + (hi_ - lo_); }

 private:
  Time lo_;
  Time hi_;
  Time total_ = 0;
};

/// True iff no time point lies in more than g of the start-sorted
/// intervals [first, last).  `heap` (reused across machines) is a min-heap
/// of at most g completion times covering every earlier job that may still
/// run.  Once it holds g, a new job either replaces the earliest completion,
/// which has ended by its start, or finds all g still running: a violation.
/// The replace is one hand-written sift-down (std::pop_heap + push_heap
/// would sift twice), so a job costs O(log g).
bool within_capacity(const Interval* first, const Interval* last, int g,
                     std::vector<Time>& heap) {
  heap.clear();
  const auto cap = static_cast<std::size_t>(g);
  for (const Interval* iv = first; iv != last; ++iv) {
    const Time c = iv->completion;
    if (heap.size() < cap) {
      heap.push_back(c);
      std::push_heap(heap.begin(), heap.end(), std::greater<Time>());
      continue;
    }
    if (heap.front() > iv->start) return false;
    std::size_t hole = 0;
    for (;;) {
      std::size_t child = 2 * hole + 1;
      if (child >= cap) break;
      if (child + 1 < cap && heap[child + 1] < heap[child]) ++child;
      if (heap[child] >= c) break;
      heap[hole] = heap[child];
      hole = child;
    }
    heap[hole] = c;
  }
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
  const std::vector<JobId>& order = inst.ids_by_start();

  ScheduleMeasure out;
  out.bounds.g = inst.g();

  // Counting sort by machine: bucket m is [offset[m], offset[m + 1]).
  const auto machines = static_cast<std::size_t>(s.machine_count());
  std::vector<std::size_t> offset(machines + 1, 0);
  for (const MachineId m : machine_of)
    if (m != Schedule::kUnscheduled) ++offset[static_cast<std::size_t>(m) + 1];
  for (std::size_t m = 0; m < machines; ++m) offset[m + 1] += offset[m];
  out.throughput = static_cast<std::int64_t>(offset[machines]);

  // One sweep in start order: the instance's length and span, and each
  // scheduled job dropped into its machine's bucket, which so comes out
  // start-sorted.
  std::vector<Interval> placed(offset[machines]);
  std::vector<std::size_t> cursor(offset.begin(), offset.end() - 1);
  if (!order.empty()) {
    SortedUnion span(jobs[static_cast<std::size_t>(order.front())].interval);
    for (const JobId id : order) {
      const auto j = static_cast<std::size_t>(id);
      const Interval& iv = jobs[j].interval;
      out.bounds.length += iv.length();
      span.add(iv);
      const MachineId m = machine_of[j];
      if (m != Schedule::kUnscheduled)
        placed[cursor[static_cast<std::size_t>(m)]++] = iv;
    }
    out.bounds.span = span.length();
  }
  out.bounds.parallelism_num = out.bounds.length;

  out.valid = true;
  std::vector<Time> heap;
  for (std::size_t m = 0; m < machines; ++m) {
    const Interval* first = placed.data() + offset[m];
    const Interval* last = placed.data() + offset[m + 1];
    if (first == last) continue;
    SortedUnion busy(*first);
    for (const Interval* iv = first + 1; iv != last; ++iv) busy.add(*iv);
    out.cost += busy.length();
    if (out.valid) out.valid = within_capacity(first, last, inst.g(), heap);
  }
  return out;
}

int max_concurrency(const Instance& inst) {
  return peak_overlap(inst.intervals()).count;
}

}  // namespace busytime
