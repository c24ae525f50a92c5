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

/// Job ids by non-increasing length, ties by ascending id: a stable LSD
/// radix sort over 11-bit digits of the length.  Each item packs
/// (length << 32) | id; ids enter in ascending order and every pass is
/// stable, so equal lengths keep id order.  Digit d goes to bucket
/// kBuckets - 1 - d, which makes each pass (and so the whole sort)
/// descending.  Requires every length in [0, 2^31).
std::vector<JobId> radix_ids_by_length_desc(const std::vector<Job>& jobs,
                                            Time max_length) {
  constexpr int kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::uint64_t kDigitMask = kBuckets - 1;
  const std::size_t n = jobs.size();
  std::vector<std::uint64_t> items(n), scratch(n);
  for (std::size_t i = 0; i < n; ++i)
    items[i] = (static_cast<std::uint64_t>(jobs[i].length()) << 32) | i;
  std::vector<std::uint32_t> offset(kBuckets);
  for (int digit = 0; (max_length >> digit) != 0; digit += kDigitBits) {
    const int shift = 32 + digit;
    std::fill(offset.begin(), offset.end(), 0);
    for (const std::uint64_t item : items)
      ++offset[kDigitMask - ((item >> shift) & kDigitMask)];
    std::uint32_t sum = 0;
    for (std::uint32_t& slot : offset) sum += std::exchange(slot, sum);
    for (const std::uint64_t item : items)
      scratch[offset[kDigitMask - ((item >> shift) & kDigitMask)]++] = item;
    items.swap(scratch);
  }
  std::vector<JobId> ids(n);
  for (std::size_t k = 0; k < n; ++k)
    ids[k] = static_cast<JobId>(items[k] & 0xFFFFFFFFu);
  return ids;
}

/// Orders `count` ids of one short run of equal starts, given in ascending
/// id order, by (completion, id): an insertion sort, stable, so equal
/// completions keep id order.  Runs in a trace hold a few jobs, and this
/// spares each one a std::sort call.
void insertion_sort_by_completion(const std::vector<Job>& jobs, JobId* ids,
                                  std::size_t count) {
  const auto completion = [&](JobId id) {
    return jobs[static_cast<std::size_t>(id)].completion();
  };
  for (std::size_t k = 1; k < count; ++k) {
    const JobId id = ids[k];
    const Time c = completion(id);
    std::size_t slot = k;
    for (; slot > 0 && completion(ids[slot - 1]) > c; --slot) ids[slot] = ids[slot - 1];
    ids[slot] = id;
  }
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
    // Traces and epoch batches arrive in start order.  One scan proves it
    // and orders each run of equal starts by (completion, id) as the run
    // closes; the first start that goes backwards abandons the scan for a
    // comparison sort of everything.
    constexpr std::size_t kInsertionSortMax = 16;
    std::size_t lo = 0;  // first job of the current run of equal starts
    for (std::size_t i = 1; i <= n; ++i) {
      if (i < n && jobs_[i].start() == jobs_[lo].start()) continue;
      if (i < n && jobs_[i].start() < jobs_[lo].start()) {
        std::sort(ids.begin(), ids.end(), before);
        break;
      }
      if (i - lo > kInsertionSortMax) {
        std::sort(ids.begin() + lo, ids.begin() + i, before);
      } else {
        insertion_sort_by_completion(jobs_, ids.data() + lo, i - lo);
      }
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
    // every solve.  Lengths are positive; when they fit 31 bits (always,
    // for realistic horizons) a radix sort on the length replaces the
    // comparison sort.  Below kRadixMinJobs the radix sort's fixed cost of
    // 2048 buckets per pass is more than the comparison sort's whole cost
    // (about 2 us against 0.1-2 us for 3-100 jobs).
    constexpr std::size_t kRadixMinJobs = 256;
    Time max_length = 0;
    for (const Job& j : jobs_) max_length = std::max(max_length, j.length());
    if (jobs_.size() >= kRadixMinJobs && max_length < (Time{1} << 31)) {
      cache.by_length = radix_ids_by_length_desc(jobs_, max_length);
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
