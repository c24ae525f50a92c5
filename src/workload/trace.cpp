#include "workload/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/prng.hpp"
#include "workload/job_count.hpp"

namespace busytime {

Instance gen_trace(const TraceParams& p) {
  assert(p.arrival_rate > 0 && p.min_duration >= 1 && p.min_duration <= p.max_duration);
  Rng rng(p.seed);
  std::vector<Job> jobs;
  jobs.reserve(detail::checked_job_count(p.n));

  double clock = 0;
  for (int i = 0; i < p.n; ++i) {
    double rate = p.arrival_rate;
    if (p.diurnal) {
      // Day/night modulation: rate swings between 25% and 175% of nominal.
      const double phase = 2.0 * 3.14159265358979 *
                           std::fmod(clock, static_cast<double>(p.day_length)) /
                           static_cast<double>(p.day_length);
      rate *= 1.0 + 0.75 * std::sin(phase);
      rate = std::max(rate, p.arrival_rate * 0.25);
    }
    clock += rng.exponential(rate);
    const Time start = static_cast<Time>(clock);
    const Time duration = rng.pareto_int(p.min_duration, p.max_duration, p.pareto_alpha);
    jobs.emplace_back(start, start + duration);
  }
  return Instance(std::move(jobs), p.g);
}

}  // namespace busytime
