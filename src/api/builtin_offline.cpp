// Registry entries for the offline MinBusy solvers (Section 3), the exact
// reference solvers, and the engineering heuristics.
#include "algo/best_cut.hpp"
#include "algo/clique_matching.hpp"
#include "algo/clique_setcover.hpp"
#include "algo/dispatch.hpp"
#include "algo/exact_minbusy.hpp"
#include "algo/first_fit.hpp"
#include "algo/local_search.hpp"
#include "algo/one_sided.hpp"
#include "algo/proper_clique_dp.hpp"
#include "api/registry.hpp"
#include "core/classify.hpp"
#include "core/instance_view.hpp"
#include "obs/hooks.hpp"

namespace busytime::detail {

namespace {

/// Wraps a full-schedule solver into the uniform result shape with a
/// single-entry trace (the solver did not decompose).
SolveResult whole_instance(Schedule s, const Instance& inst, const std::string& algo) {
  SolveResult r;
  r.schedule = std::move(s);
  r.trace.push_back({inst.size(), algo});
  return r;
}

/// Registers `info` with a classification-cached predicate, so dispatch
/// reuses the per-component classify result instead of re-deriving it per
/// candidate solver.
void add_classified(SolverRegistry& registry, SolverInfo info,
                    std::function<bool(const Instance&, const InstanceClass&)> pred) {
  info.applicable_classified = std::move(pred);
  registry.add(std::move(info));
}

}  // namespace

void register_offline_solvers(SolverRegistry& registry) {
  add_classified(
      registry,
      {
          "one_sided",
          SolverKind::kOffline,
          OptimalityClass::kExact,
          1.0,
          "Observation 3.1 greedy: optimal for one-sided clique instances",
          [](const Instance& inst) { return is_one_sided(inst); },
          /*needs_budget=*/false,
          /*dispatch_priority=*/60,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_one_sided(inst), inst, "one_sided");
          },
      },
      // A one-sided instance is automatically a clique (a shared start or a
      // shared last slot is a common time point), so cls.one_sided agrees
      // with the bare is_one_sided predicate on every non-empty instance —
      // and components are never empty.
      [](const Instance&, const InstanceClass& cls) { return cls.one_sided; });

  add_classified(
      registry,
      {
          "proper_clique_dp",
          SolverKind::kOffline,
          OptimalityClass::kExact,
          1.0,
          "FindBestConsecutive DP (Algorithm 2): optimal for proper cliques",
          [](const Instance& inst) { return is_clique(inst) && is_proper(inst); },
          /*needs_budget=*/false,
          /*dispatch_priority=*/50,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_proper_clique_dp(inst), inst, "proper_clique_dp");
          },
      },
      [](const Instance&, const InstanceClass& cls) { return cls.proper_clique(); });

  add_classified(
      registry,
      {
          "clique_matching",
          SolverKind::kOffline,
          OptimalityClass::kExact,
          1.0,
          "Lemma 3.1 maximum-weight matching: optimal for cliques with g = 2",
          [](const Instance& inst) { return inst.g() == 2 && is_clique(inst); },
          /*needs_budget=*/false,
          /*dispatch_priority=*/40,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_clique_g2_matching(inst), inst, "clique_matching");
          },
      },
      [](const Instance& inst, const InstanceClass& cls) {
        return inst.g() == 2 && cls.clique;
      });

  add_classified(
      registry,
      {
          "clique_setcover",
          SolverKind::kOffline,
          OptimalityClass::kApprox,
          2.0,
          "Lemma 3.2 greedy set cover: gH_g/(H_g+g-1)-approx for cliques, "
          "beats 2 for g <= 6 (family-size capped)",
          [](const Instance& inst) {
            return is_clique(inst) &&
                   clique_setcover_family_size(inst.size(), inst.g()) <= kMaxSetCoverFamily;
          },
          /*needs_budget=*/false,
          /*dispatch_priority=*/30,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_clique_setcover(inst), inst, "clique_setcover");
          },
      },
      [](const Instance& inst, const InstanceClass& cls) {
        return cls.clique &&
               clique_setcover_family_size(inst.size(), inst.g()) <= kMaxSetCoverFamily;
      });

  add_classified(
      registry,
      {
          "best_cut",
          SolverKind::kOffline,
          OptimalityClass::kApprox,
          2.0,
          "BestCut (Algorithm 1): (2 - 1/g)-approx for proper instances",
          [](const Instance& inst) { return is_proper(inst); },
          /*needs_budget=*/false,
          /*dispatch_priority=*/20,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_best_cut(inst), inst, "best_cut");
          },
      },
      [](const Instance&, const InstanceClass& cls) { return cls.proper; });

  add_classified(
      registry,
      {
          "first_fit",
          SolverKind::kOffline,
          OptimalityClass::kApprox,
          4.0,
          "FirstFit of [13] in non-increasing length order: 4-approx, any instance",
          [](const Instance&) { return true; },
          /*needs_budget=*/false,
          /*dispatch_priority=*/10,
          [](const Instance& inst, const SolverSpec&) {
            return whole_instance(solve_first_fit(inst), inst, "first_fit");
          },
      },
      [](const Instance&, const InstanceClass&) { return true; });

  registry.add({
      "local_search",
      SolverKind::kOffline,
      OptimalityClass::kHeuristic,
      0,
      "FirstFit + relocate/swap hill-climbing to a local optimum",
      [](const Instance&) { return true; },
      /*needs_budget=*/false,
      /*dispatch_priority=*/-1,
      [](const Instance& inst, const SolverSpec&) {
        SolveResult r = whole_instance(solve_first_fit(inst), inst, "first_fit");
        improve_schedule(inst, r.schedule);
        r.trace.push_back({inst.size(), "local_search"});
        return r;
      },
  });

  SolverInfo auto_info{
      "auto",
      SolverKind::kOffline,
      OptimalityClass::kApprox,
      4.0,
      "Per-component dispatch to the strongest applicable registered solver",
      [](const Instance&) { return true; },
      /*needs_budget=*/false,
      /*dispatch_priority=*/-1,
      [](const Instance& inst, const SolverSpec& spec) {
        // threads=1 is the option's default and here means "the exec
        // process default" (the historical dispatch behavior, which the
        // BUSYTIME_THREADS / --threads knobs steer); an explicit other
        // value pins this request's worker count.  Either way results are
        // identical — the determinism contract.
        const int threads = spec.options.threads == 1 ? 0 : spec.options.threads;
        const RequestContext* context = spec.context.get();
        // A Service InstanceHandle may have cached the decomposition; the
        // provider returns it only when it describes this exact instance.
        // The lookup is recorded as a "view" span (near-zero on a warm hit;
        // on the handle's very first use it covers the one-time build).
        const InstanceView* view = nullptr;
        if (context != nullptr && context->view_provider) {
          const auto v0 = std::chrono::steady_clock::now();
          view = context->view_provider(inst);
          obs::TraceContext* spans = obs::trace_of(context);
          if (view != nullptr && spans != nullptr)
            spans->add("view", obs::span_parent(context), v0,
                       std::chrono::steady_clock::now(),
                       static_cast<std::int64_t>(view->component_count()));
        }
        DispatchResult d = view != nullptr
                               ? solve_minbusy_auto(*view, threads, context)
                               : solve_minbusy_auto(inst, threads, context);
        SolveResult r;
        r.schedule = std::move(d.schedule);
        for (std::size_t i = 0; i < d.names.size(); ++i)
          r.trace.push_back({d.component_jobs[i], d.names[i]});
        return r;
      },
  };
  auto_info.consumes = {"threads"};
  registry.add(std::move(auto_info));

  registry.add({
      "exact",
      SolverKind::kExact,
      OptimalityClass::kExact,
      1.0,
      "Exact reference: O(3^n) clique partition DP or branch and bound "
      "(small instances only)",
      [](const Instance& inst) {
        return inst.size() <= kExactBranchBoundMaxJobs ||
               (inst.size() <= kExactCliqueDpMaxJobs && is_clique(inst));
      },
      /*needs_budget=*/false,
      /*dispatch_priority=*/-1,
      [](const Instance& inst, const SolverSpec&) {
        auto s = exact_minbusy(inst);
        if (!s) throw std::invalid_argument("instance too large for the exact solver");
        return whole_instance(std::move(*s), inst, "exact");
      },
  });
}

}  // namespace busytime::detail
