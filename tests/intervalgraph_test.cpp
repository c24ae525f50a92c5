// Tests for the sweepline primitives over half-open intervals.
#include "intervalgraph/sweepline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/prng.hpp"

namespace busytime {
namespace {

TEST(Sweepline, PeakOverlapBasics) {
  EXPECT_EQ(peak_overlap({}).count, 0);
  EXPECT_EQ(peak_overlap({{0, 5}}).count, 1);
  EXPECT_EQ(peak_overlap({{0, 5}, {3, 8}, {4, 6}}).count, 3);
  // Touching intervals never overlap.
  EXPECT_EQ(peak_overlap({{0, 5}, {5, 9}}).count, 1);
}

TEST(Sweepline, PeakWitnessTimeIsAttained) {
  const std::vector<Interval> ivs{{0, 5}, {3, 8}, {4, 6}};
  const auto peak = peak_overlap(ivs);
  int at_witness = 0;
  for (const auto& iv : ivs) at_witness += iv.contains_time(peak.time);
  EXPECT_EQ(at_witness, peak.count);
}

TEST(Sweepline, WeightedOverlap) {
  const std::vector<Interval> ivs{{0, 10}, {2, 6}, {4, 8}};
  const std::vector<std::int64_t> w{1, 10, 100};
  EXPECT_EQ(peak_weighted_overlap(ivs, w).weight, 111);  // at time in [4,6)
}

// peak_overlap is the clique number ω that validity checks against g: on
// random sets it equals the largest count of intervals holding a start
// point (a peak is always attained at some interval's start).
TEST(Sweepline, PeakMatchesBruteForceOnRandomIntervals) {
  Rng rng(3141);
  for (int rep = 0; rep < 200; ++rep) {
    const int n = static_cast<int>(rng.uniform_int(1, 25));
    std::vector<Interval> ivs;
    for (int i = 0; i < n; ++i) {
      const Time s = rng.uniform_int(0, 40);
      ivs.push_back({s, s + rng.uniform_int(1, 12)});
    }
    int brute = 0;
    for (const auto& at : ivs) {
      int active = 0;
      for (const auto& iv : ivs) active += iv.contains_time(at.start);
      brute = std::max(brute, active);
    }
    EXPECT_EQ(peak_overlap(ivs).count, brute) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace busytime
