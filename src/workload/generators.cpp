#include "workload/generators.hpp"

#include <algorithm>
#include <cassert>

#include "workload/job_count.hpp"

namespace busytime {

namespace {

Time draw_length(Rng& rng, const GenParams& p) {
  assert(p.min_len >= 1 && p.min_len <= p.max_len);
  if (p.pareto_alpha > 0)
    return rng.pareto_int(p.min_len, p.max_len, p.pareto_alpha);
  return rng.uniform_int(p.min_len, p.max_len);
}

}  // namespace

Instance gen_general(const GenParams& p) {
  Rng rng(p.seed);
  std::vector<Job> jobs;
  jobs.reserve(detail::checked_job_count(p.n));
  for (int i = 0; i < p.n; ++i) {
    const Time s = rng.uniform_int(0, p.horizon);
    jobs.emplace_back(s, s + draw_length(rng, p));
  }
  return Instance(std::move(jobs), p.g);
}

Instance gen_clique(const GenParams& p) {
  Rng rng(p.seed);
  // All jobs contain the common time t = horizon/2: start <= t < completion.
  const Time t = p.horizon / 2;
  std::vector<Job> jobs;
  jobs.reserve(detail::checked_job_count(p.n));
  for (int i = 0; i < p.n; ++i) {
    const Time len = draw_length(rng, p);
    // Place the common point uniformly inside the job: offset in [0, len-1]
    // before t (so s = t - offset <= t and c = s + len >= t + 1 > t).
    const Time offset = rng.uniform_int(0, len - 1);
    const Time s = t - offset;
    jobs.emplace_back(s, s + len);
    assert(jobs.back().interval.contains_time(t));
  }
  return Instance(std::move(jobs), p.g);
}

Instance gen_proper(const GenParams& p) {
  Rng rng(p.seed);
  // Strictly increasing starts and completions: proper by construction.
  std::vector<Job> jobs;
  jobs.reserve(detail::checked_job_count(p.n));
  Time s = 0;
  Time c = 0;
  for (int i = 0; i < p.n; ++i) {
    s += (i == 0) ? 0 : rng.uniform_int(1, std::max<Time>(1, p.horizon / p.n));
    const Time len = draw_length(rng, p);
    c = std::max(c + 1, s + len);
    jobs.emplace_back(s, c);
  }
  return Instance(std::move(jobs), p.g);
}

Instance gen_proper_clique(const GenParams& p) {
  Rng rng(p.seed);
  // Starts strictly increasing in [0, W); completions strictly increasing in
  // (W, ...): every completion exceeds every start => clique; double strict
  // monotonicity => proper.
  const std::size_t n = detail::checked_job_count(p.n);
  const Time window = std::max<Time>(p.n, p.horizon / 2);
  std::vector<Time> starts, completions;
  starts.reserve(n);
  completions.reserve(n);
  Time s = 0, c = window + 1;
  for (int i = 0; i < p.n; ++i) {
    s += (i == 0) ? rng.uniform_int(0, 3) : rng.uniform_int(1, std::max<Time>(1, window / p.n));
    c += (i == 0) ? rng.uniform_int(0, 3) : rng.uniform_int(1, std::max<Time>(1, window / p.n));
    starts.push_back(s);
    completions.push_back(c);
  }
  assert(n == 0 || starts.back() < completions.front());
  std::vector<Job> jobs;
  jobs.reserve(n);
  for (int i = 0; i < p.n; ++i)
    jobs.emplace_back(starts[static_cast<std::size_t>(i)], completions[static_cast<std::size_t>(i)]);
  return Instance(std::move(jobs), p.g);
}

Instance gen_one_sided(const GenParams& p) {
  Rng rng(p.seed);
  std::vector<Job> jobs;
  jobs.reserve(detail::checked_job_count(p.n));
  for (int i = 0; i < p.n; ++i) jobs.emplace_back(0, draw_length(rng, p));
  return Instance(std::move(jobs), p.g);
}

Instance with_random_weights(Instance inst, std::int64_t max_weight, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs = inst.jobs();
  for (auto& j : jobs) j.weight = rng.uniform_int(1, max_weight);
  return Instance(std::move(jobs), inst.g());
}

}  // namespace busytime
