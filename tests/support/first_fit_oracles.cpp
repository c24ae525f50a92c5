#include "support/first_fit_oracles.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "intervalgraph/sweepline.hpp"

namespace busytime {

// ---------------------------------------------------------------------------
// MapStepProfile

int MapStepProfile::peak_in(const Interval& window) const noexcept {
  auto it = steps_.upper_bound(window.start);
  if (it != steps_.begin()) --it;
  int peak = 0;
  for (; it != steps_.end() && it->first < window.completion; ++it)
    peak = it->second > peak ? it->second : peak;
  return peak;
}

Time MapStepProfile::add(const Interval& iv) {
  if (iv.completion <= iv.start) return 0;
  auto ensure = [this](Time t) {
    auto it = steps_.lower_bound(t);
    if (it != steps_.end() && it->first == t) return it;
    const int inherited = it == steps_.begin() ? 0 : std::prev(it)->second;
    return steps_.emplace_hint(it, t, inherited);
  };
  auto first = ensure(iv.start);
  auto last = ensure(iv.completion);
  Time newly = 0;
  for (auto it = first; it != last; ++it) {
    if (it->second == 0) newly += std::next(it)->first - it->first;
    ++it->second;
  }
  busy_ += newly;
  return newly;
}

// ---------------------------------------------------------------------------
// FirstFit oracles

namespace {

/// Reference load bookkeeping: re-sweeps the full assignment history on
/// every feasibility check.
class MachineLoadReference {
 public:
  bool fits(const Interval& candidate, int g) const {
    std::vector<Interval> clipped;
    clipped.reserve(assigned_.size());
    for (const auto& iv : assigned_) {
      const Time lo = std::max(iv.start, candidate.start);
      const Time hi = std::min(iv.completion, candidate.completion);
      if (lo < hi) clipped.push_back({lo, hi});
    }
    if (clipped.size() < static_cast<std::size_t>(g)) return true;
    return peak_overlap(clipped).count + 1 <= g;
  }

  void add(const Interval& iv) { assigned_.push_back(iv); }

 private:
  std::vector<Interval> assigned_;
};

template <typename Machine>
Schedule first_fit_with(const Instance& inst) {
  Schedule s(inst.size());
  const int g = inst.g();
  std::vector<Machine> machines;
  for (const JobId j : inst.ids_by_length_desc()) {
    const Interval& iv = inst.job(j).interval;
    MachineId target = -1;
    for (std::size_t m = 0; m < machines.size(); ++m) {
      if (machines[m].fits(iv, g)) {
        target = static_cast<MachineId>(m);
        break;
      }
    }
    if (target == -1) {
      target = static_cast<MachineId>(machines.size());
      machines.emplace_back();
    }
    machines[static_cast<std::size_t>(target)].add(iv);
    s.assign(j, target);
  }
  return s;
}

}  // namespace

Schedule solve_first_fit_reference(const Instance& inst) {
  return first_fit_with<MachineLoadReference>(inst);
}

Schedule solve_first_fit_map(const Instance& inst) {
  return first_fit_with<MapStepProfile>(inst);
}

}  // namespace busytime
