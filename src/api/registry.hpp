// SolverRegistry: the single introspectable surface over every algorithm in
// the library.
//
// Each solver — the Section 3 MinBusy algorithms, the exact reference
// solvers, the Section 4 MaxThroughput algorithms, the Section 5 extensions,
// and the online streaming policies — registers a SolverInfo carrying:
//
//   * an applicability predicate built on core/classify (so callers and the
//     dispatcher can ask "does this solver apply here?" before running it);
//   * an optimality class and approximation-ratio guarantee;
//   * a dispatch priority (the auto-dispatcher picks the highest-priority
//     applicable solver per connected component);
//   * the run function, uniform across families:
//     (Instance, SolverSpec) -> SolveResult.
//
// Built-in solvers self-register on first registry access (one registration
// unit per family under src/api/builtin_*.cpp); applications may add their
// own via SolverRegistry::instance().add().
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/classify.hpp"
#include "core/instance.hpp"
#include "online/event.hpp"

namespace busytime {

enum class SolverKind {
  kOffline,     ///< full MinBusy schedules (Section 3 + heuristics)
  kExact,       ///< exponential exact reference solvers
  kThroughput,  ///< budgeted MaxThroughput solvers (Section 4)
  kOnline,      ///< streaming policies (commit at arrival instants)
  kExtension,   ///< Section 5 extensions on the base job model
};

std::string to_string(SolverKind kind);

enum class OptimalityClass {
  kExact,      ///< provably optimal whenever applicable
  kApprox,     ///< worst-case approximation guarantee (see ratio)
  kHeuristic,  ///< no worst-case guarantee
};

std::string to_string(OptimalityClass optimality);

struct SolverInfo {
  std::string name;
  SolverKind kind = SolverKind::kOffline;
  OptimalityClass optimality = OptimalityClass::kHeuristic;
  /// Worst-case cost / OPT guarantee; 1 for exact solvers, 0 when none.
  double ratio = 0;
  /// One-line description with the paper anchor.
  std::string description;
  /// Structural precondition (core/classify predicates, size caps).  Must be
  /// cheap relative to solving; true means run() is safe to call.
  std::function<bool(const Instance&)> applicable;
  /// Budgeted solvers require options.budget >= 0.
  bool needs_budget = false;
  /// Auto-dispatch rank: per component, solve_minbusy_auto runs the
  /// applicable dispatchable solver with the highest priority.  Negative
  /// means "never auto-dispatched" (exact references, online policies, ...).
  int dispatch_priority = -1;
  /// The solver.  Fills schedule + trace (+ stats for online policies);
  /// run_solver derives cost, bounds, validity, and timing uniformly.
  std::function<SolveResult(const Instance&, const SolverSpec&)> run;
  /// Optional classification-cached form of `applicable`: receives the
  /// precomputed core/classify result for the instance, so per-component
  /// dispatch classifies once instead of once per candidate solver.  Must
  /// agree with `applicable` whenever cls == classify(inst).  When absent,
  /// is_applicable falls back to `applicable`.  (The default member
  /// initializer keeps braced registrations that stop at `run` warning-free
  /// under -Wmissing-field-initializers.)
  std::function<bool(const Instance&, const InstanceClass&)>
      applicable_classified = nullptr;
  /// Optional event-trace runner for online solvers: replays arrivals
  /// interleaved with cancellation/preemption events.  Fills schedule,
  /// stats, and trace like `run`; run_solver derives the
  /// residual-measured cost, bounds, and validity uniformly.  Online
  /// solvers without this hook are NotApplicable to traces with
  /// retractions (the replay would silently drop them).
  std::function<SolveResult(const EventTrace&, const SolverSpec&)> run_events =
      nullptr;
  /// Option keys this solver's run hook reads, beyond the ones every run
  /// consumes uniformly (g, deadline_ms, the threads parallelism knob,
  /// budget when needs_budget, improve for offline/exact solvers).  Any
  /// other non-default option on a request is recorded in
  /// SolveResult::ignored_options instead of silently accepted.
  std::vector<std::string> consumes = {};

  /// Applicability with a precomputed classification (see
  /// applicable_classified).
  bool is_applicable(const Instance& inst, const InstanceClass& cls) const {
    return applicable_classified ? applicable_classified(inst, cls)
                                 : applicable(inst);
  }
};

class SolverRegistry {
 public:
  /// The process-wide registry, with all built-in solvers registered.
  static SolverRegistry& instance();

  /// Registers a solver; throws std::invalid_argument on duplicate names or
  /// missing run/applicable hooks.
  void add(SolverInfo info);

  /// nullptr when `name` is not registered.
  const SolverInfo* find(const std::string& name) const;
  /// Throws std::invalid_argument (listing known names) when absent.
  const SolverInfo& at(const std::string& name) const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;
  /// All solvers in name order.
  std::vector<const SolverInfo*> all() const;
  /// Solvers of one kind, in name order.
  std::vector<const SolverInfo*> by_kind(SolverKind kind) const;
  /// Auto-dispatchable solvers, strongest (highest priority) first.
  const std::vector<const SolverInfo*>& dispatchable() const;

  std::size_t size() const noexcept { return solvers_.size(); }

 private:
  std::map<std::string, SolverInfo> solvers_;
  std::vector<const SolverInfo*> dispatchable_;  // priority-descending
};

/// A solver's applicability predicate rejected the instance, or an online
/// solver cannot replay the trace's retraction events.
class NotApplicableError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Resolves `spec` against the registry, checks applicability and required
/// options, runs the solver on `workload`, and fills the uniform SolveResult
/// fields (cost, throughput, bounds, ratio, validity, wall time, default
/// stats).  `workload` is an event trace (arrivals + cancellations/
/// preemptions) or a plain Instance, which converts to a trace without
/// retractions.  Online solvers replay the merged event stream — their
/// SolveResult counts cancels, refunds, and a cost measured against the
/// residual instance; every other solver kind solves the residual instance
/// directly (the honest offline comparison: the workload that actually
/// ran).  Throws std::invalid_argument for unknown solvers, SpecError for
/// missing required options, and NotApplicableError when the predicate
/// rejects or an online solver has no event replay (custom registrations
/// outside the built-in policies).
///
/// A thin shim over the process-default busytime::Service (see
/// service/service.hpp), which owns the thread pool and per-request
/// bookkeeping; defined in service/service.cpp.
SolveResult run_solver(const EventTrace& workload, const SolverSpec& spec);

namespace detail {
// Non-default options the chosen solver never reads — the canonicalization
// behind SolveResult::ignored_options and (inverted) the consumed-key set of
// SolverSpec::canonical_key.  Run-path control knobs (threads, deadline_ms)
// are neither consumed nor ignored.
std::vector<std::string> ignored_options(const SolverInfo& info,
                                         const SolverOptions& options);

// One registration unit per solver family (src/api/builtin_*.cpp).
void register_offline_solvers(SolverRegistry& registry);
void register_throughput_solvers(SolverRegistry& registry);
void register_online_solvers(SolverRegistry& registry);
void register_extension_solvers(SolverRegistry& registry);

// The context-aware solve core behind run_solver and every Service request
// path: resolve the spec, apply the g override, run the solver (or replay
// the trace's events) with control checkpoints at component boundaries
// under the RequestContext the Service installed, record ignored options,
// and fill the uniform SolveResult fields.  Deadline/cancel trips surface
// as SolveStatus, every other failure as the exceptions run_solver
// documents.
SolveResult solve_request(const EventTrace& trace, const SolverSpec& spec);
}  // namespace detail

}  // namespace busytime
