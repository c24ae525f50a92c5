// Exact maximum-weight matching by bitmask dynamic programming, linked by
// the tests (not part of libbusytime).
//
// O(2^n * n) time — the reference oracle the blossom implementation is
// checked against.
#pragma once

#include <vector>

#include "matching/matching_types.hpp"

namespace busytime {

/// Exact maximum-weight matching for n <= 24 vertices.  Weights must be
/// non-negative.  Returns mate[] and total weight.
MatchingResult max_weight_matching_dp(int n, const std::vector<WeightedEdge>& edges);

}  // namespace busytime
