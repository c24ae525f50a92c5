#include "core/instance.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace busytime {

Instance::Instance(std::vector<Job> jobs, int g) : jobs_(std::move(jobs)), g_(g) {
  if (g_ < 1)
    throw std::invalid_argument("instance capacity g must be >= 1, got " +
                                std::to_string(g_));
#ifndef NDEBUG
  for (const auto& j : jobs_) assert(j.length() > 0 && "jobs must have positive length");
#endif
}

Time Instance::total_length() const noexcept {
  Time sum = 0;
  for (const auto& j : jobs_) sum += j.length();
  return sum;
}

Time Instance::span() const { return union_length(intervals()); }

std::vector<Interval> Instance::intervals() const {
  std::vector<Interval> out;
  out.reserve(jobs_.size());
  for (const auto& j : jobs_) out.push_back(j.interval);
  return out;
}

Instance::Instance(Instance&& other) noexcept
    : jobs_(std::move(other.jobs_)),
      g_(other.g_),
      cache_(std::exchange(other.cache_, std::make_shared<OrderCache>())) {}

Instance& Instance::operator=(Instance&& other) noexcept {
  if (this != &other) {
    jobs_ = std::move(other.jobs_);
    g_ = other.g_;
    cache_ = std::exchange(other.cache_, std::make_shared<OrderCache>());
  }
  return *this;
}

namespace {

/// Job ids by non-increasing length, ties by ascending id: one counting
/// pass over the lengths max_length - range .. max_length.  Bucket 0 holds
/// the longest; ids are placed in ascending order, so each bucket keeps id
/// order.
std::vector<JobId> counting_ids_by_length_desc(const std::vector<Job>& jobs,
                                               Time max_length, Time range) {
  std::vector<std::uint32_t> offset(static_cast<std::size_t>(range) + 1);
  const auto bucket = [&](const Job& job) {
    return static_cast<std::size_t>(max_length - job.length());
  };
  for (const Job& job : jobs) ++offset[bucket(job)];
  std::uint32_t sum = 0;
  for (std::uint32_t& slot : offset) sum += std::exchange(slot, sum);
  std::vector<JobId> ids(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    ids[offset[bucket(jobs[i])]++] = static_cast<JobId>(i);
  return ids;
}

}  // namespace

const std::vector<JobId>& Instance::ids_by_start() const {
  OrderCache& cache = *cache_;
  std::call_once(cache.by_start_once, [&] {
    const auto before = [&](JobId a, JobId b) {
      const auto& ja = jobs_[static_cast<std::size_t>(a)].interval;
      const auto& jb = jobs_[static_cast<std::size_t>(b)].interval;
      if (ja.start != jb.start) return ja.start < jb.start;
      if (ja.completion != jb.completion) return ja.completion < jb.completion;
      return a < b;
    };
    const std::size_t n = jobs_.size();
    std::vector<JobId> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    // Traces arrive in start order.  One scan proves it and orders each run
    // of equal starts by (completion, id) as the run closes; the first
    // start that goes backwards abandons the scan for a comparison sort of
    // everything.
    const auto completion = [&](JobId id) {
      return jobs_[static_cast<std::size_t>(id)].completion();
    };
    std::size_t lo = 0;  // first job of the current run of equal starts
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && jobs_[i].start() == jobs_[lo].start()) continue;
      if (i < n && jobs_[i].start() < jobs_[lo].start()) {
        std::sort(ids.begin(), ids.end(), before);
        break;
      }
      order_run_by_completion(ids.data() + lo, i - lo, completion);
      lo = i;
    }
    cache.by_start = std::move(ids);
  });
  return cache.by_start;
}

const std::vector<JobId>& Instance::ids_by_length_desc() const {
  OrderCache& cache = *cache_;
  std::call_once(cache.by_length_once, [&] {
    // The dispatcher pays this order on every fresh component instance of
    // every solve, and the epoch hybrid on every batch component.  When the
    // lengths' range is small next to n (a trace's lengths span a few
    // hundred units), one counting pass over it is the whole sort; a wider
    // range takes the comparison sort.
    const std::size_t n = jobs_.size();
    Time min_length = n > 0 ? jobs_.front().length() : 0;
    Time max_length = min_length;
    for (const Job& j : jobs_) {
      min_length = std::min(min_length, j.length());
      max_length = std::max(max_length, j.length());
    }
    // Lengths are positive, so the range cannot overflow.
    const Time range = max_length - min_length;
    if (range < 4 * static_cast<Time>(n) + 64) {
      cache.by_length = counting_ids_by_length_desc(jobs_, max_length, range);
      return;
    }
    std::vector<JobId> ids(jobs_.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
      const Time la = jobs_[static_cast<std::size_t>(a)].length();
      const Time lb = jobs_[static_cast<std::size_t>(b)].length();
      if (la != lb) return la > lb;
      return a < b;
    });
    cache.by_length = std::move(ids);
  });
  return cache.by_length;
}

Instance Instance::in_start_order(std::vector<Job> jobs, int g) {
  Instance inst(std::move(jobs), g);
  const std::vector<Job>& in = inst.jobs_;
  for (std::size_t k = 1; k < in.size(); ++k)
    BUSYTIME_CHECK(in[k - 1].start() < in[k].start() ||
                       (in[k - 1].start() == in[k].start() &&
                        in[k - 1].completion() <= in[k].completion()),
                   "a start-ordered sub-instance's jobs are out of order");
  OrderCache& cache = *inst.cache_;
  std::call_once(cache.by_start_once, [&] {
    cache.by_start.resize(in.size());
    std::iota(cache.by_start.begin(), cache.by_start.end(), 0);
  });
  return inst;
}

Instance Instance::restricted_to(const std::vector<JobId>& ids) const {
  std::vector<Job> sub;
  sub.reserve(ids.size());
  for (JobId id : ids) sub.push_back(job(id));
  return Instance(std::move(sub), g_);
}

std::string Instance::summary() const {
  std::ostringstream os;
  os << "Instance{n=" << jobs_.size() << ", g=" << g_ << ", len=" << total_length()
     << ", span=" << span() << "}";
  return os.str();
}

}  // namespace busytime
