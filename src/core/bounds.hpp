// Lower and upper bounds on the optimal MinBusy cost (Observation 2.1).
//
// All bounds are exact integers except the parallelism bound len(J)/g, which
// we keep as an exact rational to avoid floating point in comparisons: a cost
// C satisfies the bound iff C * g >= len(J).
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "core/instance.hpp"

namespace busytime {

/// The Observation 2.1 bounds for an instance.
struct CostBounds {
  Time length = 0;              ///< len(J): upper bound on OPT
  Time span = 0;                ///< span(J): lower bound on OPT
  Time parallelism_num = 0;     ///< len(J); lower bound is len(J)/g
  int g = 1;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("length", &CostBounds::length);
    f("span", &CostBounds::span);
    f("parallelism_num", &CostBounds::parallelism_num);
    f("g", &CostBounds::g);
  }

  /// Every method below divides or scales by g.
  void check() const {
    if (g < 1) throw std::invalid_argument("bounds g must be >= 1");
  }

  /// Best certified lower bound as exact comparison helpers.
  /// lower_bound_times_g() = max(span * g, len): OPT * g >= this.
  std::int64_t lower_bound_times_g() const noexcept {
    const std::int64_t by_span = static_cast<std::int64_t>(span) * g;
    return by_span > parallelism_num ? by_span : parallelism_num;
  }

  /// Floating-point view of the best lower bound, for reporting ratios.
  double lower_bound() const noexcept {
    return static_cast<double>(lower_bound_times_g()) / static_cast<double>(g);
  }

  /// cost / lower_bound(), computed exactly as ratio_to_lower_bound does.
  /// Requires lower_bound_times_g() > 0 (a non-empty instance).
  double ratio(Time cost) const noexcept {
    assert(lower_bound_times_g() > 0);
    return static_cast<double>(cost) * static_cast<double>(g) /
           static_cast<double>(lower_bound_times_g());
  }

  /// True iff `cost` respects all Observation 2.1 bounds.
  bool admissible(Time cost) const noexcept {
    return static_cast<std::int64_t>(cost) * g >= lower_bound_times_g() &&
           cost <= length;
  }
};

/// Computes the Observation 2.1 bounds for `inst`.
CostBounds compute_bounds(const Instance& inst);

/// Ratio of `cost` to the best certified lower bound (>= 1 for any valid
/// full schedule; this is the measurable stand-in for cost/OPT on instances
/// too large for the exact solver).
double ratio_to_lower_bound(const Instance& inst, Time cost);

}  // namespace busytime
