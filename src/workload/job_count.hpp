// The job-count check every workload generator runs first.  Internal to
// src/workload/: callers set a generator's `n`, they do not call this.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace busytime::detail {

/// `n` as the job count a generator reserves.  Counts flow straight from
/// command-line flags, so a negative one throws std::invalid_argument
/// naming n in every build type.
inline std::size_t checked_job_count(int n) {
  if (n < 0)
    throw std::invalid_argument("job count n must be >= 0, got " + std::to_string(n));
  return static_cast<std::size_t>(n);
}

}  // namespace busytime::detail
