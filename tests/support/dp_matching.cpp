#include "support/dp_matching.hpp"

#include <cassert>
#include <cstdint>
#include <limits>

#include "util/bitops.hpp"

namespace busytime {

MatchingResult max_weight_matching_dp(int n, const std::vector<WeightedEdge>& edges) {
  assert(n >= 0 && n <= 24 && "bitmask DP limited to 24 vertices");
  const std::size_t full = std::size_t{1} << n;

  // Dense weight matrix; -1 = no edge.
  std::vector<std::vector<std::int64_t>> w(
      static_cast<std::size_t>(n), std::vector<std::int64_t>(static_cast<std::size_t>(n), -1));
  for (const auto& e : edges) {
    assert(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n && e.weight >= 0);
    if (e.u == e.v) continue;
    auto& cell = w[static_cast<std::size_t>(e.u)][static_cast<std::size_t>(e.v)];
    if (e.weight > cell) {
      cell = e.weight;
      w[static_cast<std::size_t>(e.v)][static_cast<std::size_t>(e.u)] = e.weight;
    }
  }

  // dp[mask] = max weight matching within vertex set `mask`;
  // choice[mask] = partner matched to the lowest set vertex (-1 = unmatched).
  std::vector<std::int64_t> dp(full, 0);
  std::vector<int> choice(full, -1);
  for (std::size_t mask = 1; mask < full; ++mask) {
    const int v = countr_zero(mask);
    const std::size_t rest = mask & (mask - 1);  // mask without v
    // Option 1: leave v unmatched.
    dp[mask] = dp[rest];
    choice[mask] = -1;
    // Option 2: match v with some u in rest.
    for (std::size_t sub = rest; sub; sub &= sub - 1) {
      const int u = countr_zero(sub);
      const std::int64_t weight_uv = w[static_cast<std::size_t>(v)][static_cast<std::size_t>(u)];
      if (weight_uv < 0) continue;
      const std::int64_t cand = dp[rest & ~(std::size_t{1} << u)] + weight_uv;
      if (cand > dp[mask]) {
        dp[mask] = cand;
        choice[mask] = u;
      }
    }
  }

  MatchingResult result;
  result.mate.assign(static_cast<std::size_t>(n), -1);
  result.weight = dp[full - 1];
  std::size_t mask = full - 1;
  while (mask) {
    const int v = countr_zero(mask);
    const int u = choice[mask];
    if (u < 0) {
      mask &= mask - 1;
    } else {
      result.mate[static_cast<std::size_t>(v)] = u;
      result.mate[static_cast<std::size_t>(u)] = v;
      mask &= ~(std::size_t{1} << v);
      mask &= ~(std::size_t{1} << u);
    }
  }
  return result;
}

}  // namespace busytime
