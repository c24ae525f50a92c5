// SolveResult: the response half of the unified solver API.
//
// Every registered solver — offline approximation, exact reference,
// throughput solver, extension, or online policy — returns the same shape:
// the schedule, its cost, the Observation 2.1 bounds, a per-component
// algorithm trace, and counters unified with the online engine's
// EngineStats, so benchmarks, tests, and the CLI compare solvers without
// per-family glue.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "core/bounds.hpp"
#include "core/schedule.hpp"
#include "online/engine_stats.hpp"
#include "util/fields.hpp"

namespace busytime {

/// One entry of the per-component algorithm trace: which algorithm handled
/// how many jobs.  Solvers that do not decompose report a single entry.
struct ComponentTrace {
  std::uint64_t jobs = 0;
  std::string algo;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("jobs", &ComponentTrace::jobs);
    f("algo", &ComponentTrace::algo);
  }

  friend bool operator==(const ComponentTrace& a, const ComponentTrace& b) {
    return util::fields_equal(a, b);
  }
};

struct SolveResult {
  /// Registry name of the solver that produced this result.
  std::string solver;
  /// Request outcome.  kDeadline / kCancelled results carry an empty
  /// schedule (valid == false): controls are honored at component
  /// boundaries, never mid-algorithm, so there is no partial schedule to
  /// report.
  SolveStatus status = SolveStatus::kOk;
  /// The computed (possibly partial, for throughput solvers) schedule.
  Schedule schedule;
  /// cost(s): total busy time of the schedule.
  Time cost = 0;
  /// Number of scheduled jobs (== instance size for MinBusy solvers).
  std::int64_t throughput = 0;
  /// Observation 2.1 bounds of the solved instance.
  CostBounds bounds;
  /// cost / best certified lower bound (0 when the instance is empty).
  double ratio_to_lower_bound = 0;
  /// Schedule passed core/validate.
  bool valid = false;
  /// Per-component algorithm trace, in component order.
  std::vector<ComponentTrace> trace;
  /// Unified counters.  Online policies fill every field from the streaming
  /// pool; offline solvers fill the jobs_assigned / machines_opened /
  /// online_cost subset (machines never close offline).
  EngineStats stats;
  /// Wall-clock time of the solve path: the solver, the local-search
  /// post-pass, and finalize (cost, bounds, validity).
  double wall_ms = 0;
  /// Non-default spec options the chosen solver never looked at (e.g.
  /// budget= on an offline solver, epoch= on first-fit), in option-key
  /// order.  Callers asking for behavior the solver cannot deliver find out
  /// here instead of silently; the CLI surfaces them as warnings.
  std::vector<std::string> ignored_options;
  /// True when the Service's result cache served this result instead of a
  /// fresh solve.  Cached results are bit-identical to the computed one
  /// except for this flag and wall_ms (zeroed on a hit).
  bool cached = false;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("solver", &SolveResult::solver);
    f("status", &SolveResult::status);
    f("schedule", &SolveResult::schedule);
    f("cost", &SolveResult::cost);
    f("throughput", &SolveResult::throughput);
    f("bounds", &SolveResult::bounds);
    f("ratio_to_lower_bound", &SolveResult::ratio_to_lower_bound);
    f("valid", &SolveResult::valid);
    f("trace", &SolveResult::trace);
    f("stats", &SolveResult::stats);
    f("wall_ms", &SolveResult::wall_ms);
    f("ignored_options", &SolveResult::ignored_options);
    f("cached", &SolveResult::cached);
  }

  /// One-line human-readable summary for CLIs and logs.
  std::string summary() const;
};

}  // namespace busytime
