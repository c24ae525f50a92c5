// Tests for the matching substrate.  The blossom implementation is validated
// against the exact bitmask-DP oracle on thousands of random graphs.
#include "matching/blossom.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "matching/greedy_matching.hpp"
#include "support/dp_matching.hpp"
#include "util/prng.hpp"

namespace busytime {
namespace {

std::int64_t verify_matching(int n, const std::vector<WeightedEdge>& edges,
                             const MatchingResult& m) {
  // mate[] must be involutive and only pair adjacent vertices; recompute the
  // weight independently.
  EXPECT_EQ(m.mate.size(), static_cast<std::size_t>(n));
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(n), std::vector<std::int64_t>(static_cast<std::size_t>(n), -1));
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    auto& cell = w[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)];
    if (e.weight > cell) {
      cell = e.weight;
      w[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] = e.weight;
    }
  }
  std::int64_t weight = 0;
  for (int v = 0; v < n; ++v) {
    const int u = m.mate[static_cast<std::size_t>(v)];
    if (u == -1) continue;
    EXPECT_GE(u, 0);
    EXPECT_LT(u, n);
    EXPECT_NE(u, v);
    EXPECT_EQ(m.mate[static_cast<std::size_t>(u)], v) << "mate[] not involutive";
    if (u > v) {
      EXPECT_GE(w[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)], 0)
          << "matched non-edge " << v << "-" << u;
      weight += w[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)];
    }
  }
  EXPECT_EQ(weight, m.weight) << "reported weight disagrees with mate[]";
  return weight;
}

TEST(Blossom, EmptyAndSingletons) {
  EXPECT_EQ(max_weight_matching(0, {}).weight, 0);
  EXPECT_EQ(max_weight_matching(1, {}).weight, 0);
  const auto m = max_weight_matching(3, {});
  EXPECT_EQ(m.weight, 0);
  for (const int mate : m.mate) EXPECT_EQ(mate, -1);
}

TEST(Blossom, SingleEdge) {
  const auto m = max_weight_matching(2, {{0, 1, 7}});
  EXPECT_EQ(m.weight, 7);
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[1], 0);
}

TEST(Blossom, PrefersHeavyEdgeOverTwoLight) {
  // Path 0-1-2-3 with middle edge heavier than both ends combined.
  const auto m = max_weight_matching(4, {{0, 1, 3}, {1, 2, 10}, {2, 3, 3}});
  EXPECT_EQ(m.weight, 10);
  EXPECT_EQ(m.mate[1], 2);
}

TEST(Blossom, PrefersTwoLightOverOneHeavy) {
  const auto m = max_weight_matching(4, {{0, 1, 6}, {1, 2, 10}, {2, 3, 6}});
  EXPECT_EQ(m.weight, 12);
  EXPECT_EQ(m.mate[0], 1);
  EXPECT_EQ(m.mate[2], 3);
}

TEST(Blossom, OddCycleTriangle) {
  // Triangle: best is the single heaviest edge.
  const auto m = max_weight_matching(3, {{0, 1, 5}, {1, 2, 6}, {0, 2, 4}});
  EXPECT_EQ(m.weight, 6);
}

TEST(Blossom, FiveCycleBlossomCase) {
  // C5 with weights forcing a blossom: optimal takes two non-adjacent edges.
  const std::vector<WeightedEdge> edges{
      {0, 1, 8}, {1, 2, 3}, {2, 3, 8}, {3, 4, 3}, {4, 0, 3}};
  const auto m = max_weight_matching(5, edges);
  EXPECT_EQ(m.weight, 16);
  verify_matching(5, edges, m);
}

TEST(Blossom, PetersenLikeBlossomNesting) {
  // Two triangles joined by a path; exercises blossom shrink + expand.
  const std::vector<WeightedEdge> edges{
      {0, 1, 5}, {1, 2, 5}, {0, 2, 5},   // triangle A
      {3, 4, 5}, {4, 5, 5}, {3, 5, 5},   // triangle B
      {2, 3, 1}};                        // bridge
  const auto m = max_weight_matching(6, edges);
  // Best: one edge from each triangle plus... bridge conflicts; optimum is
  // 5 + 5 + 1 = 11 (e.g. 0-1, 4-5, 2-3).
  EXPECT_EQ(m.weight, 11);
  verify_matching(6, edges, m);
}

TEST(Blossom, ZeroWeightEdgesIgnored) {
  const auto m = max_weight_matching(4, {{0, 1, 0}, {2, 3, 4}});
  EXPECT_EQ(m.weight, 4);
  EXPECT_EQ(m.mate[0], -1);
  EXPECT_EQ(m.mate[1], -1);
}

TEST(Blossom, ParallelEdgesKeepHeaviest) {
  const auto m = max_weight_matching(2, {{0, 1, 3}, {0, 1, 9}, {1, 0, 5}});
  EXPECT_EQ(m.weight, 9);
}

TEST(DpMatching, MatchesKnownOptima) {
  EXPECT_EQ(max_weight_matching_dp(4, {{0, 1, 6}, {1, 2, 10}, {2, 3, 6}}).weight, 12);
  EXPECT_EQ(max_weight_matching_dp(3, {{0, 1, 5}, {1, 2, 6}, {0, 2, 4}}).weight, 6);
  EXPECT_EQ(max_weight_matching_dp(0, {}).weight, 0);
}

TEST(GreedyMatching, IsHalfApproximation) {
  // Worst-case for greedy: middle edge slightly heavier.
  const std::vector<WeightedEdge> edges{{0, 1, 5}, {1, 2, 6}, {2, 3, 5}};
  const auto greedy = greedy_matching(4, edges);
  EXPECT_EQ(greedy.weight, 6);  // takes the middle edge, blocking both ends
  const auto opt = max_weight_matching_dp(4, edges);
  EXPECT_EQ(opt.weight, 10);
  EXPECT_GE(greedy.weight * 2, opt.weight);
}

// ---- Property tests: blossom vs DP oracle on random graphs ----

// Every field is 8 bytes wide so the struct has no padding: --gtest_list_tests
// prints the parameter's raw bytes, CTest's test discovery keeps them in the
// test name, and uninitialised padding would make that name vary by build.
struct RandomGraphParams {
  std::int64_t n;
  double density;
  std::int64_t max_weight;
};
static_assert(sizeof(RandomGraphParams) == 3 * 8, "RandomGraphParams must have no padding");

class BlossomRandomTest : public ::testing::TestWithParam<RandomGraphParams> {};

TEST_P(BlossomRandomTest, AgreesWithDpOracle) {
  const auto params = GetParam();
  const int n = static_cast<int>(params.n);
  Rng rng(0xB10550F + static_cast<std::uint64_t>(params.n) * 7919 +
          static_cast<std::uint64_t>(params.max_weight));
  for (int rep = 0; rep < 120; ++rep) {
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v)
        if (rng.bernoulli(params.density))
          edges.push_back({u, v, rng.uniform_int(1, params.max_weight)});

    const auto blossom = max_weight_matching(n, edges);
    const auto oracle = max_weight_matching_dp(n, edges);
    EXPECT_EQ(blossom.weight, oracle.weight)
        << "n=" << n << " m=" << edges.size() << " rep=" << rep;
    verify_matching(n, edges, blossom);

    // Greedy is within factor 2.
    const auto greedy = greedy_matching(n, edges);
    EXPECT_GE(greedy.weight * 2, oracle.weight);
    verify_matching(n, edges, greedy);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandomTest,
    ::testing::Values(RandomGraphParams{4, 0.5, 10}, RandomGraphParams{6, 0.3, 100},
                      RandomGraphParams{6, 0.9, 5}, RandomGraphParams{8, 0.5, 1000},
                      RandomGraphParams{9, 0.7, 3},  // many ties -> blossoms
                      RandomGraphParams{10, 0.4, 50}, RandomGraphParams{11, 0.6, 7},
                      RandomGraphParams{12, 0.5, 100000}),
    [](const ::testing::TestParamInfo<RandomGraphParams>& info) {
      return "n" + std::to_string(info.param.n) + "_w" +
             std::to_string(info.param.max_weight);
    });

TEST(Blossom, CompleteGraphsWithUniformWeights) {
  // Complete graphs with all-equal weights: weight = floor(n/2) * w.
  for (int n = 2; n <= 12; ++n) {
    std::vector<WeightedEdge> edges;
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v) edges.push_back({u, v, 7});
    const auto m = max_weight_matching(n, edges);
    EXPECT_EQ(m.weight, static_cast<std::int64_t>(n / 2) * 7) << "n=" << n;
  }
}

TEST(Blossom, LargeRandomGraphSmokeAndInvariants) {
  // No oracle here (too big); checks structural invariants and that blossom
  // is at least as good as greedy.
  Rng rng(2024);
  const int n = 120;
  std::vector<WeightedEdge> edges;
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (rng.bernoulli(0.15)) edges.push_back({u, v, rng.uniform_int(1, 1000)});
  const auto blossom = max_weight_matching(n, edges);
  const auto greedy = greedy_matching(n, edges);
  verify_matching(n, edges, blossom);
  EXPECT_GE(blossom.weight, greedy.weight);
}

}  // namespace
}  // namespace busytime
