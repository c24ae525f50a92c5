// Registry entries for the Section 5 extensions that share the base Instance
// model (per-job demands and weighted throughput).  The ring/tree/flexible
// extensions use different instance types and stay outside the registry.
#include <algorithm>

#include "api/registry.hpp"
#include "core/classify.hpp"
#include "extensions/capacity_demands.hpp"
#include "extensions/weighted_tput.hpp"

namespace busytime::detail {

void register_extension_solvers(SolverRegistry& registry) {
  registry.add({
      "first_fit_demands",
      SolverKind::kExtension,
      OptimalityClass::kHeuristic,
      0,
      "Demand-aware FirstFit ([16] model): peak concurrent demand <= g per "
      "machine; unit demands recover first_fit semantics",
      // The model needs every demand in [1, g]: a larger one fits no machine.
      [](const Instance& inst) {
        return std::all_of(inst.jobs().begin(), inst.jobs().end(),
                           [&](const Job& job) {
                             return job.demand >= 1 && job.demand <= inst.g();
                           });
      },
      /*needs_budget=*/false,
      /*dispatch_priority=*/-1,
      [](const Instance& inst, const SolverSpec&) {
        SolveResult r;
        r.schedule = solve_first_fit_demands(inst);
        r.trace.push_back({inst.size(), "first_fit_demands"});
        return r;
      },
  });

  registry.add({
      "tput_weighted",
      SolverKind::kExtension,
      OptimalityClass::kExact,
      1.0,
      "Weighted MaxThroughput DP for proper cliques (Section 5 open problem; "
      "pseudo-polynomial Pareto-frontier scan)",
      [](const Instance& inst) { return is_clique(inst) && is_proper(inst); },
      /*needs_budget=*/true,
      /*dispatch_priority=*/-1,
      [](const Instance& inst, const SolverSpec& spec) {
        WeightedTputResult w = solve_proper_clique_weighted_tput(inst, spec.options.budget);
        SolveResult r;
        r.schedule = std::move(w.schedule);
        r.trace.push_back({inst.size(), "tput_weighted"});
        return r;
      },
  });
}

}  // namespace busytime::detail
