// Flat SoA concurrency step-function profiles — the shared hot-path data
// structure behind the greedy MinBusy solvers.
//
// A machine's load over time is a step function: the number of assigned
// jobs running at each instant.  The greedy inner loops ask two questions
// millions of times per solve — "does one more job fit under g inside this
// window?" (fits) and "charge this interval to the machine" (add) — so the
// representation is chosen for those scans, not for generality:
//
//  * BasicFlatProfile<T> keeps the step function as two parallel flat
//    vectors (sorted breakpoint times + per-segment counts, SoA).  A
//    feasibility check is a branchless binary search over contiguous keys
//    followed by a short early-exit scan of contiguous counts; an add
//    splices both breakpoints in one combined pass (a single backward slide
//    of the tail, amortized in-place) plus a contiguous increment pass.  No
//    nodes, no pointers, no allocator traffic per breakpoint — the scan is
//    memory-bandwidth-bound, which is the whole point (the node-based
//    std::map version this replaces spent its time pointer-chasing; it
//    lives on as MapStepProfile in tests/support, the equivalence
//    reference and perf_profile's ablation baseline).
//
//    A profile keeps its machine's whole history, so an add's splice moves
//    every breakpoint after the job: ~1,900 on average on a 150k-job
//    trace's components.  FirstFit therefore runs on a per-instance count
//    grid instead whenever the instance's hull is narrow enough
//    (algo/first_fit.hpp); the flat profile stays FirstFit's kernel for
//    wide-time instances, and best_cut's.
//
//    The storage type T is a template parameter so the first-fit hot path
//    can halve its cache footprint: when every job endpoint of an instance
//    fits in int32_t (checked once per solve), the solver runs on
//    BasicFlatProfile<int32> — half the bytes per binary-search probe and
//    per splice memmove, twice the hull compares per vector lane.  The
//    caller guarantees representability; the arithmetic is otherwise
//    identical, so schedules are bit-equal to the Time-wide profile.
//
//  * BasicBusyWindows<T> is the per-pool SoA companion: the busy-window
//    hull (earliest start, latest completion) of every machine in two
//    parallel arrays, so the per-job machine scan can reject
//    non-overlapping machines branchlessly — an auto-vectorizable block
//    scan over flat T[] data that never touches a profile — before the
//    first profile lookup.  In FirstFit order the first machine whose hull
//    misses the candidate accepts it outright, so the hull scan both
//    bounds the profile work and resolves the common "machine busy in
//    another era" case in O(machines/8) vector compares.  FirstFit's count
//    grid runs the same scan over int32 offsets into its hull.
//
// add() returns the busy-time increase (the newly covered length), so
// callers accumulate exact union lengths for free — best_cut's phase costs
// and the bench checksums ride on that.
//
// tests/profile_test.cpp holds FlatProfile == MapStepProfile == a
// brute-force reference over random operation streams, and the first-fit
// equivalence suites pin both FirstFit kernels to the quadratic reference
// bit for bit on every instance family.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/time_types.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace busytime {

/// Concurrency step function over two parallel flat vectors.
///
/// Invariants: times_ is strictly increasing; counts_[k] is the concurrency
/// on [times_[k], times_[k+1]) (zero before the first and after the last
/// breakpoint; the final segment's count is always zero).
///
/// Precondition on T: every Time handed to add() must be exactly
/// representable in T (trivially true for T = Time; the first-fit dispatcher
/// range-checks the instance before choosing T = int32_t).
template <typename T>
class BasicFlatProfile {
 public:
  bool empty() const noexcept { return times_.empty(); }

  /// Breakpoints currently stored (diagnostics / bench accounting).
  std::size_t segment_count() const noexcept { return times_.size(); }

  /// Union length of all added intervals, maintained incrementally.
  Time busy_time() const noexcept { return busy_; }

  /// Hull of everything added so far; meaningless while empty().
  Interval window() const noexcept {
    return empty() ? Interval{0, 0} : Interval{times_.front(), times_.back()};
  }

  /// Peak concurrency of the added intervals inside `window` (0 when none
  /// intersects it).
  int peak_in(const Interval& window) const noexcept {
    // Segment containing window.start (or the first segment after it when
    // window.start precedes every breakpoint — the implicit zero region).
    std::size_t i = upper_bound_index(window.start);
    i -= static_cast<std::size_t>(i > 0);
    const std::size_t n = times_.size();
    const T* times = times_.data();
    const std::int32_t* counts = counts_.data();
    std::int32_t peak = 0;
    for (; i < n && times[i] < window.completion; ++i)
      peak = counts[i] > peak ? counts[i] : peak;
    return static_cast<int>(peak);
  }

  /// True iff one more job over `candidate` keeps peak concurrency <= g.
  /// O(1) when the candidate misses the profile's hull entirely (an empty
  /// candidate overlaps nothing and always fits).
  bool fits(const Interval& candidate, int g) const noexcept {
    if (times_.empty() || candidate.completion <= times_.front() ||
        candidate.start >= times_.back() || candidate.empty())
      return true;
    return !saturated_in(candidate, g);
  }

  /// Charges `iv` to the profile and returns the busy-time increase: the
  /// length of the part of `iv` no previously added interval covered.
  Time add(const Interval& iv) {
    if (iv.completion <= iv.start) return 0;
    const T s = static_cast<T>(iv.start);
    const T e = static_cast<T>(iv.completion);
    const std::size_t n = times_.size();
    if (n == 0) {
      times_.reserve(8);
      counts_.reserve(8);
      times_.push_back(s);
      times_.push_back(e);
      counts_.push_back(1);
      counts_.push_back(0);
      busy_ += iv.completion - iv.start;
      return iv.completion - iv.start;
    }
    // Combined splice: locate both breakpoints first (the completion search
    // runs over the tail [si, n) only), then open both gaps with ONE
    // backward slide of the tail plus one short slide of the middle —
    // instead of two vector::insert calls that each shift everything after
    // their index.
    const std::size_t si = lower_bound_index(iv.start);
    const bool need_s = si == n || times_[si] != s;
    const std::size_t ej = lower_bound_index_from(si, iv.completion);
    const bool need_e = ej == n || times_[ej] != e;
    const std::size_t grow =
        static_cast<std::size_t>(need_s) + static_cast<std::size_t>(need_e);
    if (grow != 0) {
      if (times_.capacity() < n + grow) {
        const std::size_t cap = std::max(n + grow, 2 * n);
        times_.reserve(cap);
        counts_.reserve(cap);
      }
      times_.resize(n + grow);
      counts_.resize(n + grow);
      T* t = times_.data();
      std::int32_t* c = counts_.data();
      const std::size_t shift_s = static_cast<std::size_t>(need_s);
      std::memmove(t + ej + grow, t + ej, (n - ej) * sizeof(T));
      std::memmove(c + ej + grow, c + ej, (n - ej) * sizeof(std::int32_t));
      if (need_e) {
        // A new breakpoint splits an existing segment and inherits its
        // count (zero in the implicit region before the first breakpoint;
        // the trailing segment's count is zero by invariant, covering
        // appends).  [0, ej) still holds original values — the middle
        // slides below.
        t[ej + shift_s] = e;
        c[ej + shift_s] = ej > 0 ? c[ej - 1] : 0;
      }
      if (need_s) {
        std::memmove(t + si + 1, t + si, (ej - si) * sizeof(T));
        std::memmove(c + si + 1, c + si, (ej - si) * sizeof(std::int32_t));
        t[si] = s;
        c[si] = si > 0 ? c[si - 1] : 0;
      }
    }
    const T* times = times_.data();
    std::int32_t* counts = counts_.data();
    const std::size_t last = ej + static_cast<std::size_t>(need_s);
    // Splice accounting: both endpoints must now be real breakpoints, local
    // ordering around them must hold, and the trailing segment stays zero.
    BUSYTIME_CHECK(times[si] == s && times[last] == e,
                   "flat-profile splice lost an interval endpoint");
    BUSYTIME_CHECK((si == 0 || times[si - 1] < times[si]) &&
                       times[last - 1] < times[last],
                   "flat-profile breakpoints are no longer strictly increasing");
    BUSYTIME_CHECK(counts_.back() == 0,
                   "flat-profile trailing segment must carry zero concurrency");
    Time newly = 0;
    for (std::size_t k = si; k < last; ++k) {
      newly += counts[k] == 0 ? static_cast<Time>(times[k + 1] - times[k]) : 0;
      ++counts[k];
    }
    BUSYTIME_CHECK(newly >= 0 && newly <= iv.completion - iv.start,
                   "flat-profile busy increment exceeds the added interval");
    busy_ += newly;
    return newly;
  }

  /// Forgets everything (keeps the vectors' capacity for reuse).
  void clear() noexcept {
    times_.clear();
    counts_.clear();
    busy_ = 0;
  }

 private:
  /// First index with times_[i] >= t (branchless binary search: the
  /// compiler turns the ternary into cmov, so the loop has no
  /// unpredictable branch — only the final data-dependent loads, which hit
  /// contiguous cache lines).
  std::size_t lower_bound_index(Time t) const noexcept {
    const T* base = times_.data();
    std::size_t len = times_.size();
    if (len == 0) return 0;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (base[half - 1] < t) ? half : 0;
      len -= half;
    }
    return static_cast<std::size_t>(base - times_.data()) +
           static_cast<std::size_t>(*base < t);
  }

  /// First index with times_[i] > t (branchless binary search).
  std::size_t upper_bound_index(Time t) const noexcept {
    const T* base = times_.data();
    std::size_t len = times_.size();
    if (len == 0) return 0;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (base[half - 1] <= t) ? half : 0;
      len -= half;
    }
    return static_cast<std::size_t>(base - times_.data()) +
           static_cast<std::size_t>(*base <= t);
  }

  /// lower_bound_index restricted to [from, size()) — add() confines the
  /// completion-breakpoint search to the tail after the start breakpoint.
  std::size_t lower_bound_index_from(std::size_t from, Time t) const noexcept {
    const T* base = times_.data() + from;
    std::size_t len = times_.size() - from;
    if (len == 0) return from;
    while (len > 1) {
      const std::size_t half = len / 2;
      base += (base[half - 1] < t) ? half : 0;
      len -= half;
    }
    return static_cast<std::size_t>(base - times_.data()) +
           static_cast<std::size_t>(*base < t);
  }

  /// True iff some segment intersecting `window` already has count >= g.
  /// fits() without the full max-scan: bails at the first segment already
  /// at capacity.  Rejecting machines (the ones the first-fit scan pays
  /// for) usually saturate near the candidate's start, so the early exit
  /// trims the common miss to a couple of count reads.
  bool saturated_in(const Interval& window, int g) const noexcept {
    std::size_t i = upper_bound_index(window.start);
    i -= static_cast<std::size_t>(i > 0);
    const std::size_t n = times_.size();
    const T* times = times_.data();
    const std::int32_t* counts = counts_.data();
    for (; i < n && times[i] < window.completion; ++i)
      if (counts[i] >= g) return true;
    return false;
  }

  std::vector<T> times_;             ///< sorted segment starts
  std::vector<std::int32_t> counts_; ///< concurrency per segment (SoA pair)
  Time busy_ = 0;
};

/// The default, full-width profile every solver uses unless it has proven
/// its instance narrow (see solve_first_fit's int32 fast lane).
using FlatProfile = BasicFlatProfile<Time>;
using FlatProfile32 = BasicFlatProfile<std::int32_t>;

/// Per-pool SoA busy-window hulls: start_[m] / end_[m] bound machine m's
/// assigned work.  first_clear() is the branchless prefilter of the per-job
/// machine scan: blocks of eight hull compares collapse into one bitmask
/// test (auto-vectorizable — the compare chain is pure flat T[] data with
/// no profile access), and the low set bit names the first machine whose
/// busy window misses the candidate.  Same representability precondition
/// on T as BasicFlatProfile.
template <typename T>
class BasicBusyWindows {
 public:
  std::size_t size() const noexcept { return start_.size(); }

  /// Registers a new machine whose hull is exactly `iv`.
  void push(const Interval& iv) {
    start_.push_back(static_cast<T>(iv.start));
    end_.push_back(static_cast<T>(iv.completion));
  }

  /// Widens machine m's hull to cover `iv`.
  void widen(std::size_t m, const Interval& iv) noexcept {
    const T s = static_cast<T>(iv.start);
    const T e = static_cast<T>(iv.completion);
    start_[m] = s < start_[m] ? s : start_[m];
    end_[m] = e > end_[m] ? e : end_[m];
  }

  /// Index of the first machine whose busy window does NOT overlap `iv`
  /// (size() when every machine's window does).  Every machine before the
  /// returned index overlaps `iv` and needs a real profile check.
  std::size_t first_clear(const Interval& iv) const noexcept {
    const std::size_t n = start_.size();
    const T* starts = start_.data();
    const T* ends = end_.data();
    std::size_t m = 0;
    // Blocks of eight hull compares fold into one byte-mask: no branch
    // inside the block, pure flat T[] reads, and the low set bit of the
    // mask is the first machine whose busy window misses
    // [iv.start, iv.completion).
    for (; m + 8 <= n; m += 8) {
      unsigned mask = 0;
      for (unsigned k = 0; k < 8; ++k)
        mask |= static_cast<unsigned>(ends[m + k] <= iv.start ||
                                      starts[m + k] >= iv.completion)
                << k;
      if (mask != 0) return m + static_cast<std::size_t>(countr_zero(mask));
    }
    for (; m < n; ++m)
      if (ends[m] <= iv.start || starts[m] >= iv.completion) return m;
    return n;
  }

 private:
  std::vector<T> start_, end_;
};

using BusyWindows = BasicBusyWindows<Time>;
using BusyWindows32 = BasicBusyWindows<std::int32_t>;

}  // namespace busytime
