#include "workload/rect_generators.hpp"

#include <cassert>

#include "workload/job_count.hpp"

namespace busytime {

RectInstance gen_rects(const RectGenParams& p) {
  assert(p.min_len1 >= 1 && p.min_len1 <= p.max_len1);
  assert(p.min_len2 >= 1 && p.min_len2 <= p.max_len2);
  Rng rng(p.seed);
  std::vector<Rect> jobs;
  jobs.reserve(detail::checked_job_count(p.n));
  for (int i = 0; i < p.n; ++i) {
    const Time s1 = rng.uniform_int(0, p.horizon1);
    const Time s2 = rng.uniform_int(0, p.horizon2);
    jobs.emplace_back(s1, s1 + rng.uniform_int(p.min_len1, p.max_len1), s2,
                      s2 + rng.uniform_int(p.min_len2, p.max_len2));
  }
  return RectInstance(std::move(jobs), p.g);
}

}  // namespace busytime
