// SolverSpec: the request half of the unified solver API.
//
// A spec is a string-keyed solver name (resolved against the SolverRegistry)
// plus a small set of typed options shared by every solver family:
//
//   g=G           capacity override (rebuilds the instance with g = G)
//   budget=T      busy-time budget for the MaxThroughput solvers
//   epoch=T       epoch length of the epoch-hybrid online policy
//   max_batch=K   batch cap of the epoch-hybrid online policy
//   seed=S        seed for randomized solvers (none yet; reserved)
//   improve=0|1   run local-search post-optimization on the result
//   threads=N     sharded-replay workers for the online policies
//                 (0 = exec process default, 1 = sequential; results are
//                 identical at every thread count)
//   deadline_ms=D per-request deadline, honored at component boundaries
//                 (0 = none); expired requests return status kDeadline
//
// Options a chosen solver never looks at are recorded in
// SolveResult::ignored_options rather than silently accepted.
//
// Specs parse from "name" or "name:key=value,key=value" strings, the format
// the busytime_cli accepts via --solver; malformed input throws SpecError
// with a message naming the offending token.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "core/time_types.hpp"

namespace busytime {

/// Raised on malformed solver specs or option strings.
class SpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Typed options understood across solver families.  Defaults reproduce the
/// historical free-function behavior.
struct SolverOptions {
  /// Capacity override; 0 keeps the instance's own g.
  int g = 0;
  /// Busy-time budget for MaxThroughput solvers; < 0 means "not set"
  /// (running a budgeted solver without one is an error).
  Time budget = -1;
  /// Epoch length for the epoch-hybrid online policy.
  Time epoch_length = 1024;
  /// Batch cap for the epoch-hybrid online policy.
  int max_batch = 4096;
  /// Seed for randomized solvers (reserved; all current solvers are
  /// deterministic).
  std::uint64_t seed = 1;
  /// Run local-search post-optimization after the solver (full MinBusy
  /// schedules only; ignored by throughput solvers).
  bool improve = false;
  /// Sharded-replay worker count for the online policies: 1 = sequential,
  /// 0 = exec::default_threads().  Never changes results, only speed.
  int threads = 1;
  /// Per-request deadline in milliseconds, measured from request start
  /// (Service::submit resolves it at submission, so queue wait counts);
  /// 0 = no deadline.  Honored at component boundaries: an expired request
  /// returns a SolveResult with status kDeadline and an empty schedule.
  double deadline_ms = 0;

  /// The option keys, in documented key order (also the wire order).
  template <typename F>
  static constexpr void fields(F&& f) {
    f("g", &SolverOptions::g);
    f("budget", &SolverOptions::budget);
    f("epoch", &SolverOptions::epoch_length);
    f("max_batch", &SolverOptions::max_batch);
    f("seed", &SolverOptions::seed);
    f("improve", &SolverOptions::improve);
    f("threads", &SolverOptions::threads);
    f("deadline_ms", &SolverOptions::deadline_ms);
  }

  /// Throws SpecError naming the first option outside its domain.  g = 0
  /// and budget = -1 are the "unset" defaults: valid in a record, but not
  /// values a text spec may assign, so set() names the key it assigned.
  void check(const std::string& assigned = {}) const;

  /// Applies one "key=value" assignment ("epoch_length" is an alias of
  /// "epoch"); throws SpecError on unknown keys, non-numeric values, or
  /// out-of-range values, leaving the options unchanged.
  void set(const std::string& key, const std::string& value);

  /// Parses a comma-separated "k=v,k=v" option list ("" is valid and empty).
  static SolverOptions parse(const std::string& text);

  /// Option keys holding non-default values, in the documented key order.
  /// The run path diffs this against what the chosen solver consumes to
  /// fill SolveResult::ignored_options.
  std::vector<std::string> non_default_keys() const;

  /// Canonical text of one option's current value (the same rendering
  /// to_string() uses).  Throws SpecError on unknown keys.
  std::string value_of(const std::string& key) const;
};

/// A solver invocation request: registry name + options + per-request
/// controls.
struct SolverSpec {
  std::string name = "auto";
  SolverOptions options;
  /// Cooperative cancellation handle for this request (inert by default).
  /// Callers keep a copy and trigger it; the run path checks it at
  /// component boundaries.  Never serialized.
  CancelToken cancel;
  /// Request-scoped span collector (src/obs/).  Callers that want a span
  /// tree set this to a fresh obs::TraceContext and keep their reference;
  /// the run path (or Service) carries it into the RequestContext and
  /// records queue wait, view build/hit, per-component solves, shard
  /// replays, ... into it.  Null = tracing off.  Never serialized.
  std::shared_ptr<obs::TraceContext> trace;
  /// Runtime context installed by the run path / Service (resolved deadline
  /// instant, cancel token, cached-view hook, metrics/trace sinks).
  /// Internal: callers set options.deadline_ms, `cancel`, and `trace`
  /// instead.  Never serialized.
  std::shared_ptr<const RequestContext> context;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("name", &SolverSpec::name);
    f("options", &SolverSpec::options);
  }

  /// Throws SpecError on a name to_string() could not print back: empty,
  /// or holding the ':' that separates the options.
  void check() const;

  /// Parses "name" or "name:k=v,k=v".  Throws SpecError on an empty name or
  /// malformed option list.
  static SolverSpec parse(const std::string& text);

  /// Canonical "name:k=v,..." form (only non-default options are printed).
  std::string to_string() const;

  /// Result-equivalence key for the Service's result cache: the solver name
  /// plus the sorted non-default options the named solver actually consumes.
  /// Two specs with equal canonical keys compute bit-identical results on
  /// the same instance — ignored options (recorded in
  /// SolveResult::ignored_options) and run-path controls that never change
  /// result bytes (threads, deadline_ms) are excluded by the same
  /// canonicalization that drives ignored-option reporting (api/registry).
  /// Unknown solver names fall back to every non-control non-default key.
  std::string canonical_key() const;
};

}  // namespace busytime
