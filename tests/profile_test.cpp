// Property tests for the flat SoA step-function profiles (algo/profile.hpp):
// FlatProfile, MapStepProfile, and a brute-force interval-list reference
// must agree on every fits/add/busy_time answer over randomized operation
// sequences; both first-fit kernels, the map ablation, and the quadratic
// reference must produce identical assignments on every instance family;
// and the online MachinePool (now on SoA hot scalars) must stay
// bit-identical across thread counts under cancel/truncate streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/first_fit.hpp"
#include "algo/profile.hpp"
#include "core/validate.hpp"
#include "intervalgraph/sweepline.hpp"
#include "online/stream_driver.hpp"
#include "support/first_fit_checks.hpp"
#include "support/first_fit_oracles.hpp"
#include "util/prng.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

/// Brute-force oracle: keeps the raw interval list; fits by clipping +
/// peak_overlap, busy time by union_length.
class BruteProfile {
 public:
  bool fits(const Interval& candidate, int g) const {
    std::vector<Interval> clipped;
    for (const auto& iv : assigned_) {
      const Time lo = std::max(iv.start, candidate.start);
      const Time hi = std::min(iv.completion, candidate.completion);
      if (lo < hi) clipped.push_back({lo, hi});
    }
    if (clipped.empty()) return true;
    return peak_overlap(clipped).count + 1 <= g;
  }

  void add(const Interval& iv) { assigned_.push_back(iv); }

  Time busy_time() const { return union_length(assigned_); }

 private:
  std::vector<Interval> assigned_;
};

Interval random_interval(Rng& rng, Time horizon) {
  const Time a = rng.uniform_int(0, horizon);
  const Time len = rng.uniform_int(1, horizon / 4 + 1);
  return {a, a + len};
}

TEST(FlatProfile, MatchesMapAndBruteForceOnRandomOps) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 977);
    FlatProfile flat;
    MapStepProfile map;
    BruteProfile brute;
    const Time horizon = 1000;
    for (int op = 0; op < 120; ++op) {
      const Interval iv = random_interval(rng, horizon);
      const int g = static_cast<int>(rng.uniform_int(1, 6));
      const bool f = flat.fits(iv, g);
      ASSERT_EQ(f, map.fits(iv, g)) << "seed " << seed << " op " << op;
      ASSERT_EQ(f, brute.fits(iv, g)) << "seed " << seed << " op " << op;
      // Probe a few more windows (including empty and miss-the-hull ones).
      const Interval probe = random_interval(rng, horizon);
      const int pg = static_cast<int>(rng.uniform_int(1, 4));
      ASSERT_EQ(flat.fits(probe, pg), brute.fits(probe, pg));
      ASSERT_TRUE(flat.fits({iv.start, iv.start}, 1));  // empty candidate
      if (rng.uniform_int(0, 2) != 0) {
        const Time delta_flat = flat.add(iv);
        const Time delta_map = map.add(iv);
        brute.add(iv);
        ASSERT_EQ(delta_flat, delta_map);
        ASSERT_EQ(flat.busy_time(), brute.busy_time());
        ASSERT_EQ(map.busy_time(), brute.busy_time());
        ASSERT_EQ(flat.segment_count(), map.segment_count());
      }
    }
  }
}

TEST(FlatProfile, PeakInMatchesSweepOnDenseOverlaps) {
  // Saturate one narrow region so every segment shape (nested, chained,
  // identical, touching) shows up.
  Rng rng(4242);
  FlatProfile flat;
  BruteProfile brute;
  for (int op = 0; op < 200; ++op) {
    const Time a = rng.uniform_int(0, 30);
    const Time b = a + rng.uniform_int(1, 10);
    flat.add({a, b});
    brute.add({a, b});
    for (Time w = 0; w < 40; w += 7) {
      for (const int g : {1, 3, 8, 64}) {
        ASSERT_EQ(flat.fits({w, w + 5}, g), brute.fits({w, w + 5}, g))
            << "op " << op << " window [" << w << "," << w + 5 << ") g " << g;
      }
    }
    ASSERT_EQ(flat.busy_time(), brute.busy_time());
  }
}

TEST(FlatProfile, FirstFitIdentityAcrossAllSixFamilies) {
  const auto check = [](const Instance& inst) {
    expect_kernels_match_reference(inst);
    EXPECT_EQ(solve_first_fit_map(inst).assignment(),
              solve_first_fit_reference(inst).assignment());
  };
  GenParams p;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const int g : {1, 2, 5, 255}) {
      p.n = 50;
      p.g = g;
      p.seed = seed * 53;
      check(gen_general(p));
      check(gen_clique(p));
      check(gen_proper(p));
      check(gen_proper_clique(p));
      check(gen_one_sided(p));
    }
    TraceParams t;
    t.n = 300;
    t.g = 4;
    t.seed = seed;
    t.diurnal = (seed % 2) == 0;
    check(gen_trace(t));
  }
}

TEST(FlatProfile, StatsOverloadReturnsSameScheduleAndSaneCounters) {
  TraceParams p;
  p.n = 2000;
  p.g = 8;
  p.seed = 7;
  const Instance trace = gen_trace(p);
  FirstFitStats stats;
  const Schedule with_stats = solve_first_fit(trace, &stats);
  EXPECT_EQ(with_stats.assignment(), solve_first_fit(trace).assignment());
  EXPECT_EQ(stats.placements, trace.size());
  EXPECT_GT(stats.machines, 0u);
  EXPECT_GT(stats.segments, 0u);
  // Every hull-scan accept is a placement, and profile checks only target
  // machines whose hulls overlap the candidate.
  EXPECT_LE(stats.window_accepts, stats.placements);
  // The point of the busy-window prefilter: on a long-horizon trace the
  // profile-check count stays near-linear (machines busy in other eras are
  // rejected by the flat hull scan and never reach a profile).  Without the
  // prefilter this would be Θ(placements · machines).
  EXPECT_LE(stats.profile_checks, 2 * stats.placements);
}

TEST(FlatProfile, BusyWindowsFirstClearMatchesLinearScan) {
  Rng rng(99);
  BusyWindows windows;
  std::vector<Interval> hulls;
  for (int i = 0; i < 100; ++i) {
    const Interval hull = random_interval(rng, 500);
    windows.push(hull);
    hulls.push_back(hull);
    if (i % 3 == 0) {
      const auto m = static_cast<std::size_t>(rng.uniform_int(0, i));
      const Interval widen = random_interval(rng, 500);
      windows.widen(m, widen);
      hulls[m] = hulls[m].hull(widen);
    }
    const Interval candidate = random_interval(rng, 500);
    std::size_t expected = hulls.size();
    for (std::size_t m = 0; m < hulls.size(); ++m) {
      if (!hulls[m].overlaps(candidate)) {
        expected = m;
        break;
      }
    }
    ASSERT_EQ(windows.first_clear(candidate), expected) << "round " << i;
  }
}

// The MachinePool hot scalars moved into pool-level SoA vectors; replaying
// cancel/preempt streams sharded across 1/2/8 threads must keep schedules
// and every EngineStats counter (including truncate refunds) bit-identical
// to the sequential replay.
TEST(FlatProfileMachinePool, CancelTruncateShardedIdentity) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TraceParams tp;
    tp.n = 4000;
    tp.g = 6;
    tp.seed = seed * 11;
    tp.diurnal = (seed % 2) == 0;
    CancelParams cp;
    cp.cancel_rate = 0.2;
    cp.preempt_fraction = 0.3;
    cp.seed = seed;
    const EventTrace trace = gen_cancellable(tp, cp);
    for (const auto policy :
         {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit}) {
      const ReplayResult sequential =
          replay_stream(trace, policy, {}, /*threads=*/1, /*min_shard_jobs=*/64);
      for (const int threads : {2, 8}) {
        const ReplayResult sharded =
            replay_stream(trace, policy, {}, threads, /*min_shard_jobs=*/64);
        EXPECT_EQ(sharded.schedule.assignment(),
                  sequential.schedule.assignment())
            << "seed " << seed << " threads " << threads;
        EXPECT_EQ(sharded.stats, sequential.stats)
            << "seed " << seed << " threads " << threads;
      }
      EXPECT_EQ(sequential.stats.slots_recycled,
                sequential.stats.machines_opened -
                    sequential.stats.peak_open_machines);
    }
  }
}

}  // namespace
}  // namespace busytime
