#include "algo/first_fit.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <vector>

#include "algo/profile.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"

namespace busytime {

namespace {

/// True when every job endpoint is exactly representable in int32 (with
/// headroom so interval arithmetic can never wrap) — the license for the
/// narrow profile lane below.
bool fits_in_int32(const Instance& inst) {
  constexpr Time kLo = std::numeric_limits<std::int32_t>::min() / 4;
  constexpr Time kHi = std::numeric_limits<std::int32_t>::max() / 4;
  for (JobId j = 0; j < static_cast<JobId>(inst.size()); ++j) {
    const Interval& iv = inst.job(j).interval;
    if (iv.start < kLo || iv.completion > kHi) return false;
  }
  return true;
}

/// FirstFit's loop, shared by both kernels so that they check machines in
/// the same order and count the same work.  `Kernel` maps a job into the
/// frame its hulls live in (`frame`), checks one machine (`fits`) and
/// charges one (`add`, which opens machine m when m equals the machines so
/// far); `Kernel::Windows` is its busy-window hull array.
template <typename Kernel>
Schedule first_fit_loop(const Instance& inst, Kernel& kernel,
                        FirstFitStats& local) {
  Schedule s(inst.size());
  const std::vector<Job>& jobs = inst.jobs();
  typename Kernel::Windows windows;
  for (const JobId j : inst.ids_by_length_desc()) {
    const Interval iv = kernel.frame(jobs[static_cast<std::size_t>(j)].interval);
    // Branchless SoA prefilter: machines in [0, clear) have busy windows
    // overlapping iv and need a real check; machine `clear` (when it
    // exists) is busy elsewhere in time and accepts iv outright.  FirstFit
    // never looks past the first non-overlapping machine, so the hull scan
    // both caps the per-machine work and resolves the common cross-era
    // case without touching a machine.
    const std::size_t clear = windows.first_clear(iv);
    std::size_t target = clear;
    for (std::size_t m = 0; m < clear; ++m) {
      ++local.profile_checks;
      if (kernel.fits(m, iv)) {
        target = m;
        break;
      }
    }
    local.window_accepts +=
        static_cast<std::uint64_t>(target == clear && clear < windows.size());
    if (target == windows.size()) {
      windows.push(iv);
    } else {
      windows.widen(target, iv);
    }
    kernel.add(target, iv);
    s.assign(j, static_cast<MachineId>(target));
    ++local.placements;
  }
  local.machines = windows.size();
  return s;
}

/// The flat kernel: one step-function profile per machine.
template <typename T>
struct FlatKernel {
  using Windows = BasicBusyWindows<T>;

  int g = 1;
  std::vector<BasicFlatProfile<T>> profiles;

  Interval frame(const Interval& iv) const noexcept { return iv; }
  bool fits(std::size_t m, const Interval& iv) const noexcept {
    return profiles[m].fits(iv, g);
  }
  void add(std::size_t m, const Interval& iv) {
    if (m == profiles.size()) profiles.emplace_back();
    profiles[m].add(iv);
  }
};

template <typename T>
Schedule first_fit_flat(const Instance& inst, FirstFitStats* stats) {
  FlatKernel<T> kernel{inst.g(), {}};
  FirstFitStats local;
  Schedule s = first_fit_loop(inst, kernel, local);
  if (stats != nullptr) {
    for (const BasicFlatProfile<T>& p : kernel.profiles)
      local.segments += p.segment_count();
    *stats = local;
  }
  return s;
}

/// Lane pick: the narrow profile halves every binary-search probe and
/// splice memmove and doubles the hull compares per vector lane; the
/// arithmetic is identical when the endpoints are representable, so both
/// lanes produce the same schedule bit for bit (pinned by the equivalence
/// suite).  The O(n) range check is noise next to the solve.
Schedule flat_dispatch(const Instance& inst, FirstFitStats* stats) {
  return fits_in_int32(inst) ? first_fit_flat<std::int32_t>(inst, stats)
                             : first_fit_flat<Time>(inst, stats);
}

// ---------------------------------------------------------------------------
// The count grid

/// Cells per job the grid may allocate: the cost rule takes the grid iff
/// rows · W <= kGridCellsPerJob · n.  A 150k-job trace's components sit at
/// 10 in the median (61 at most, in a few tiny ones), a 2,000-job general
/// input at 38, 64-job trace batches at 40 at most and a 20k-job clique at
/// 99; wide-time inputs, where the flat profile is the only affordable
/// kernel, sit in the thousands (a trace with x1000 timestamps at 3,500
/// and up, 50k long jobs on a 10^6 horizon at 14,600).
constexpr std::uint64_t kGridCellsPerJob = 128;

/// The grid's geometry for one instance: job times become offsets from
/// `origin`, each of the `rows` machines owns `width` cells.
struct GridShape {
  Time origin = 0;
  std::size_t width = 0;
  std::size_t rows = 0;
};

/// Above this many hull offsets per job, the peak pass sweeps the jobs
/// instead of the offsets.
constexpr std::uint64_t kSweepOffsetsPerJob = 16;

/// Peak concurrency of the instance's jobs, whose hull is `width` offsets
/// wide from `origin`.  A dense hull takes one difference-array pass over
/// its offsets.  A sparse one sweeps the jobs in start order with a heap of
/// the running jobs' completions, so the rule never pays 4 bytes per
/// offset for a hull that holds few jobs.
std::size_t peak_concurrency(const Instance& inst, Time origin,
                             std::size_t width) {
  const std::vector<Job>& jobs = inst.jobs();
  if (width > kSweepOffsetsPerJob * jobs.size()) {
    std::priority_queue<Time, std::vector<Time>, std::greater<>> running;
    std::size_t peak = 0;
    for (const JobId j : inst.ids_by_start()) {
      const Interval& iv = jobs[static_cast<std::size_t>(j)].interval;
      while (!running.empty() && running.top() <= iv.start) running.pop();
      running.push(iv.completion);
      peak = std::max(peak, running.size());
    }
    return peak;
  }
  std::vector<std::int32_t> delta(width + 1, 0);
  for (const Job& job : jobs) {
    ++delta[static_cast<std::size_t>(job.interval.start - origin)];
    --delta[static_cast<std::size_t>(job.interval.completion - origin)];
  }
  std::int64_t running = 0, peak = 0;
  for (std::size_t k = 0; k < width; ++k) {
    running += delta[k];
    peak = std::max(peak, running);
  }
  return static_cast<std::size_t>(peak);
}

/// The grid's shape when the instance may take it, std::nullopt when the
/// flat profile must run.  Hard preconditions: every job has positive
/// length (the grid has no cell for an empty job), g <= 255 (a count is
/// one byte) and the hull width fits the int32 offsets of the hull scan.
/// Unless `forced`, the cost rule rows · W <= kGridCellsPerJob · n applies
/// as well.  The peak pass runs only once W passes it, and once the
/// average concurrency (total length / W, a lower bound on P) does not
/// already fail it.
std::optional<GridShape> grid_shape(const Instance& inst, bool forced) {
  const std::vector<Job>& jobs = inst.jobs();
  const auto g = static_cast<std::uint64_t>(inst.g());
  if (jobs.empty() || g > 255) return std::nullopt;
  Time lo = jobs.front().interval.start;
  Time hi = jobs.front().interval.completion;
  std::uint64_t total = 0;  // wraps only for hulls far wider than the rule
  for (const Job& job : jobs) {
    const Interval& iv = job.interval;
    if (iv.completion <= iv.start) return std::nullopt;
    lo = std::min(lo, iv.start);
    hi = std::max(hi, iv.completion);
    total += static_cast<std::uint64_t>(iv.completion) - static_cast<std::uint64_t>(iv.start);
  }
  // hi - lo can exceed Time's range (endpoints near ±2^62); the unsigned
  // difference is exact because hi >= lo.
  const std::uint64_t width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t budget = kGridCellsPerJob * jobs.size();
  if (width > static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max()))
    return std::nullopt;
  if (!forced) {
    const std::uint64_t average = (total + width - 1) / width;
    if (width > budget || (2 * average / g + 1) > budget / width) return std::nullopt;
  }
  GridShape shape;
  shape.origin = lo;
  shape.width = static_cast<std::size_t>(width);
  shape.rows = 2 * peak_concurrency(inst, lo, shape.width) / g + 1;
  if (!forced && shape.rows > budget / width) return std::nullopt;
  return shape;
}

/// True iff some cell of row[a, b) already holds g jobs.  The first cell is
/// probed alone: a machine that rejects a job is usually saturated where
/// the job starts.  A job of 33 cells or more is then scanned in 32-byte
/// blocks, each folded into one max so the block vectorizes; the last
/// block ends at b and may overlap the one before it.
bool saturated(const std::uint8_t* row, std::size_t a, std::size_t b,
               std::uint8_t g) noexcept {
  if (row[a] >= g) return true;
  constexpr std::size_t kBlock = 32;
  const auto block_saturated = [row, g](std::size_t k) {
    std::uint8_t peak = 0;
    for (std::size_t i = 0; i < kBlock; ++i) peak = std::max(peak, row[k + i]);
    return peak >= g;
  };
  if (b - a <= kBlock) {
    for (std::size_t k = a + 1; k < b; ++k)
      if (row[k] >= g) return true;
    return false;
  }
  for (std::size_t k = a + 1; k + kBlock < b; k += kBlock)
    if (block_saturated(k)) return true;
  return block_saturated(b - kBlock);
}

/// The grid kernel: machine m owns row m of `cells`, one count per hull
/// offset, and jobs live in offsets from the hull's origin.
///
/// The rows cap the machines.  A job opens machine M only after finding
/// each of the M - 1 open machines saturated at some point t inside it.
/// The g jobs saturating t came earlier, so each is at least as long as the
/// job; one that starts after the job's start therefore runs past its
/// completion.  So each contains the job's start or the point just before
/// its completion, and so does the job.  Those two points carry at most 2P
/// jobs: g · (M - 1) + 2 <= 2P, so M <= floor(2P/g) + 1 = rows.
struct GridKernel {
  using Windows = BusyWindows32;

  GridShape shape;
  std::uint8_t g = 0;
  std::vector<std::uint8_t> cells;

  Interval frame(const Interval& iv) const noexcept {
    return {iv.start - shape.origin, iv.completion - shape.origin};
  }
  bool fits(std::size_t m, const Interval& offsets) const noexcept {
    return !saturated(cells.data() + m * shape.width,
                      static_cast<std::size_t>(offsets.start),
                      static_cast<std::size_t>(offsets.completion), g);
  }
  void add(std::size_t m, const Interval& offsets) noexcept {
    BUSYTIME_CHECK(m < shape.rows,
                   "FirstFit opened more machines than floor(2P/g) + 1");
    std::uint8_t* row = cells.data() + m * shape.width;
    const auto b = static_cast<std::size_t>(offsets.completion);
    for (auto k = static_cast<std::size_t>(offsets.start); k < b; ++k) ++row[k];
  }
};

Schedule first_fit_grid(const Instance& inst, const GridShape& shape,
                        FirstFitStats* stats) {
  GridKernel kernel{shape, static_cast<std::uint8_t>(inst.g()),
                    std::vector<std::uint8_t>(shape.rows * shape.width, 0)};
  FirstFitStats local;
  Schedule s = first_fit_loop(inst, kernel, local);
  if (stats != nullptr) {
    // A flat profile's breakpoints are its machine's distinct endpoints:
    // mark them in one bit row per machine (offsets 0..W) and count.
    const std::vector<Job>& jobs = inst.jobs();
    const std::size_t words = shape.width / 64 + 1;
    std::vector<std::uint64_t> marks(local.machines * words, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t base =
          static_cast<std::size_t>(s.assignment()[j]) * words;
      for (const Time t : {jobs[j].interval.start, jobs[j].interval.completion}) {
        const auto offset = static_cast<std::size_t>(t - shape.origin);
        marks[base + offset / 64] |= std::uint64_t{1} << (offset % 64);
      }
    }
    for (const std::uint64_t word : marks)
      local.segments += static_cast<std::uint64_t>(popcount(word));
    local.grid = 1;
    *stats = local;
  }
  return s;
}

}  // namespace

Schedule solve_first_fit(const Instance& inst) {
  return solve_first_fit(inst, nullptr);
}

Schedule solve_first_fit(const Instance& inst, FirstFitStats* stats) {
  if (const std::optional<GridShape> shape = grid_shape(inst, /*forced=*/false))
    return first_fit_grid(inst, *shape, stats);
  return flat_dispatch(inst, stats);
}

Schedule solve_first_fit_flat(const Instance& inst, FirstFitStats* stats) {
  return flat_dispatch(inst, stats);
}

Schedule solve_first_fit_grid(const Instance& inst, FirstFitStats* stats) {
  if (const std::optional<GridShape> shape = grid_shape(inst, /*forced=*/true))
    return first_fit_grid(inst, *shape, stats);
  return flat_dispatch(inst, stats);
}

}  // namespace busytime
