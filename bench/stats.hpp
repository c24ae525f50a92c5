// Small online-statistics helpers used by the experiment binaries.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

namespace busytime {

/// Accumulates a stream of doubles and reports summary statistics.
/// Mean/variance use Welford's online algorithm; quantiles keep the samples.
class StatAccumulator {
 public:
  void add(double x) {
    samples_.push_back(x);
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = count_ == 1 ? x : std::min(min_, x);
    max_ = count_ == 1 ? x : std::max(max_, x);
  }

  std::size_t count() const noexcept { return count_; }
  double mean() const noexcept { return count_ ? mean_ : 0.0; }
  double min() const noexcept { return count_ ? min_ : 0.0; }
  double max() const noexcept { return count_ ? max_ : 0.0; }

  double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }
  double stddev() const noexcept { return std::sqrt(variance()); }

  /// q-quantile by linear interpolation, q in [0, 1].
  double quantile(double q) const {
    assert(!samples_.empty());
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }

  double median() const { return quantile(0.5); }

 private:
  std::vector<double> samples_;
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace busytime
