// Shared types for the matching substrate.
#pragma once

#include <cstdint>
#include <vector>

namespace busytime {

/// Undirected weighted edge for matching problems.  Weights must be
/// non-negative; zero-weight edges are treated as absent.
struct WeightedEdge {
  int u = 0;
  int v = 0;
  std::int64_t weight = 0;
};

/// A matching: mate[v] is the matched partner of v, or -1 if v is exposed.
struct MatchingResult {
  std::vector<int> mate;
  std::int64_t weight = 0;
};

}  // namespace busytime
