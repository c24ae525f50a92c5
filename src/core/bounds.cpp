#include "core/bounds.hpp"

namespace busytime {

CostBounds compute_bounds(const Instance& inst) {
  CostBounds b;
  b.length = inst.total_length();
  b.span = inst.span();
  b.parallelism_num = b.length;
  b.g = inst.g();
  return b;
}

double ratio_to_lower_bound(const Instance& inst, Time cost) {
  return compute_bounds(inst).ratio(cost);
}

}  // namespace busytime
