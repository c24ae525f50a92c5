// Synthetic 2-D (rectangular) instance generators.
#pragma once

#include <cstdint>

#include "rect/rect_instance.hpp"
#include "util/prng.hpp"

namespace busytime {

struct RectGenParams {
  int n = 50;
  int g = 4;
  Time horizon1 = 1000;  ///< dimension-1 positions drawn from [0, horizon1]
  Time horizon2 = 1000;
  Time min_len1 = 10, max_len1 = 100;  ///< controls gamma1 = max/min
  Time min_len2 = 10, max_len2 = 100;
  std::uint64_t seed = 1;
};

/// Uniformly random rectangles.
RectInstance gen_rects(const RectGenParams& p);

}  // namespace busytime
