// Unified solver API: registry enumeration, metadata sanity, applicability
// agreement with core/classify, spec/option parsing, and uniform execution
// through run_solver.
#include <gtest/gtest.h>

#include <algorithm>

#include "api/registry.hpp"
#include "core/bounds.hpp"
#include "core/classify.hpp"
#include "core/validate.hpp"
#include "extensions/capacity_demands.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

TEST(Registry, EnumeratesEverySolverFamily) {
  const SolverRegistry& registry = SolverRegistry::instance();
  EXPECT_GE(registry.size(), 10u);

  const auto names = registry.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"one_sided", "proper_clique_dp", "clique_matching", "clique_setcover",
        "best_cut", "first_fit", "local_search", "auto",
        "exact", "tput_one_sided", "tput_proper_clique", "tput_clique", "tput_exact",
        "online_first_fit", "online_best_fit", "epoch_hybrid", "first_fit_demands",
        "tput_weighted"}) {
    EXPECT_NE(registry.find(expected), nullptr) << expected;
  }

  EXPECT_FALSE(registry.by_kind(SolverKind::kOffline).empty());
  EXPECT_FALSE(registry.by_kind(SolverKind::kExact).empty());
  EXPECT_FALSE(registry.by_kind(SolverKind::kThroughput).empty());
  EXPECT_FALSE(registry.by_kind(SolverKind::kOnline).empty());
  EXPECT_FALSE(registry.by_kind(SolverKind::kExtension).empty());

  for (const SolverInfo* info : registry.all()) {
    EXPECT_FALSE(info->description.empty()) << info->name;
    EXPECT_TRUE(static_cast<bool>(info->applicable)) << info->name;
    EXPECT_TRUE(static_cast<bool>(info->run)) << info->name;
    if (info->optimality == OptimalityClass::kExact) {
      EXPECT_EQ(info->ratio, 1.0) << info->name;
    }
    if (info->optimality == OptimalityClass::kApprox) {
      EXPECT_GT(info->ratio, 1.0) << info->name;
    }
  }

  // The dispatch order is the paper's routing table, strongest first.
  const auto& dispatchable = registry.dispatchable();
  ASSERT_GE(dispatchable.size(), 6u);
  for (std::size_t i = 1; i < dispatchable.size(); ++i)
    EXPECT_GE(dispatchable[i - 1]->dispatch_priority, dispatchable[i]->dispatch_priority);
  EXPECT_EQ(dispatchable.front()->name, "one_sided");
  EXPECT_EQ(dispatchable.back()->name, "first_fit");

  EXPECT_THROW(registry.at("no_such_solver"), std::invalid_argument);
  EXPECT_EQ(registry.find("no_such_solver"), nullptr);
}

TEST(Registry, ApplicabilityAgreesWithClassify) {
  const SolverRegistry& registry = SolverRegistry::instance();
  GenParams p;
  p.n = 18;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const int g : {1, 2, 4}) {
      p.g = g;
      p.seed = seed * 101;
      for (const Instance& inst :
           {gen_general(p), gen_clique(p), gen_proper(p), gen_proper_clique(p),
            gen_one_sided(p)}) {
        const InstanceClass cls = classify(inst);
        EXPECT_EQ(registry.at("one_sided").applicable(inst), cls.one_sided);
        EXPECT_EQ(registry.at("proper_clique_dp").applicable(inst), cls.proper_clique());
        EXPECT_EQ(registry.at("clique_matching").applicable(inst),
                  cls.clique && inst.g() == 2);
        EXPECT_EQ(registry.at("best_cut").applicable(inst), cls.proper);
        EXPECT_EQ(registry.at("tput_clique").applicable(inst), cls.clique);
        EXPECT_EQ(registry.at("tput_proper_clique").applicable(inst),
                  cls.proper_clique());
        EXPECT_TRUE(registry.at("first_fit").applicable(inst));
        EXPECT_TRUE(registry.at("auto").applicable(inst));
        EXPECT_TRUE(registry.at("online_best_fit").applicable(inst));
      }
    }
  }
}

TEST(Registry, RunSolverProducesValidBoundedSchedules) {
  GenParams p;
  p.n = 14;
  p.g = 3;
  p.seed = 7;
  const Instance clique = gen_clique(p);
  const CostBounds bounds = compute_bounds(clique);

  for (const SolverInfo* info : SolverRegistry::instance().all()) {
    SolverSpec spec;
    spec.name = info->name;
    if (info->needs_budget) spec.options.budget = bounds.length;  // generous
    if (!info->applicable(clique)) continue;
    const SolveResult result = run_solver(clique, spec);
    EXPECT_TRUE(result.valid) << info->name;
    EXPECT_EQ(result.solver, info->name);
    EXPECT_FALSE(result.trace.empty()) << info->name;
    EXPECT_GE(result.stats.machines_opened, 1) << info->name;
    EXPECT_EQ(result.schedule.size(), clique.size()) << info->name;
    if (info->kind != SolverKind::kThroughput && info->kind != SolverKind::kExtension) {
      EXPECT_EQ(result.throughput, static_cast<std::int64_t>(clique.size()))
          << info->name;
      EXPECT_TRUE(bounds.admissible(result.cost)) << info->name;
      EXPECT_GE(result.ratio_to_lower_bound, 1.0) << info->name;
    }
  }
}

TEST(Registry, BudgetedSolversRequireBudget) {
  GenParams p;
  p.n = 10;
  p.g = 2;
  p.seed = 3;
  const Instance clique = gen_clique(p);
  SolverSpec spec;
  spec.name = "tput_clique";
  EXPECT_THROW(run_solver(clique, spec), SpecError);
  spec.options.budget = 0;
  EXPECT_NO_THROW(run_solver(clique, spec));  // zero budget: empty schedule
}

TEST(Registry, RunSolverRejectsInapplicableAndUnknown) {
  GenParams p;
  p.n = 30;
  p.g = 3;
  p.seed = 5;
  const Instance general = gen_general(p);
  SolverSpec spec;
  spec.name = "proper_clique_dp";
  if (!is_clique(general) || !is_proper(general)) {
    EXPECT_THROW(run_solver(general, spec), NotApplicableError);
  }
  spec.name = "no_such_solver";
  EXPECT_THROW(run_solver(general, spec), std::invalid_argument);
}

TEST(Registry, CapacityOverrideRebuildsInstance) {
  GenParams p;
  p.n = 16;
  p.g = 1;
  p.seed = 11;
  const Instance inst = gen_clique(p);
  SolverSpec spec = SolverSpec::parse("first_fit:g=4");
  const SolveResult wide = run_solver(inst, spec);
  const SolveResult narrow = run_solver(inst, SolverSpec::parse("first_fit"));
  EXPECT_EQ(wide.bounds.g, 4);
  EXPECT_EQ(narrow.bounds.g, 1);
  // g = 1 forbids overlap entirely, so its cost is at least the g = 4 cost.
  EXPECT_GE(narrow.cost, wide.cost);
}

TEST(SolverSpecParsing, AcceptsNamesAndOptionLists) {
  const SolverSpec plain = SolverSpec::parse("best_cut");
  EXPECT_EQ(plain.name, "best_cut");
  EXPECT_EQ(plain.to_string(), "best_cut");

  const SolverSpec rich =
      SolverSpec::parse("epoch_hybrid:epoch=256,max_batch=64,seed=9,improve=1");
  EXPECT_EQ(rich.name, "epoch_hybrid");
  EXPECT_EQ(rich.options.epoch_length, 256);
  EXPECT_EQ(rich.options.max_batch, 64);
  EXPECT_EQ(rich.options.seed, 9u);
  EXPECT_TRUE(rich.options.improve);
  EXPECT_EQ(SolverSpec::parse(rich.to_string()).to_string(), rich.to_string());

  const SolverSpec budgeted = SolverSpec::parse("tput_clique:budget=500");
  EXPECT_EQ(budgeted.options.budget, 500);
}

TEST(SolverSpecParsing, RejectsMalformedInput) {
  EXPECT_THROW(SolverSpec::parse(""), SpecError);
  EXPECT_THROW(SolverSpec::parse(":epoch=9"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:epoch"), SpecError);        // no '='
  EXPECT_THROW(SolverSpec::parse("auto:epoch="), SpecError);       // no value
  EXPECT_THROW(SolverSpec::parse("auto:epoch=abc"), SpecError);    // not an int
  EXPECT_THROW(SolverSpec::parse("auto:epoch=12x"), SpecError);    // trailing junk
  EXPECT_THROW(SolverSpec::parse("auto:epoch=0"), SpecError);      // out of range
  EXPECT_THROW(SolverSpec::parse("auto:g=0"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:g=-3"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:budget=-1"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:max_batch=0"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:improve=maybe"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:frobnicate=1"), SpecError);  // unknown key
  EXPECT_THROW(SolverSpec::parse("auto:,epoch=2"), SpecError);      // empty item
}

TEST(Registry, ImproveNeverBreaksExtensionSemantics) {
  // improve=1 must not hill-climb a demand-aware schedule with the base
  // capacity-count validity: two overlapping demand-2 jobs on g=2 may never
  // share a machine, however much busy time the merge would save.
  std::vector<Job> jobs{Job(0, 10), Job(0, 10)};
  jobs[0].demand = 2;
  jobs[1].demand = 2;
  const Instance inst(std::move(jobs), /*g=*/2);
  const SolveResult r = run_solver(inst, SolverSpec::parse("first_fit_demands:improve=1"));
  EXPECT_TRUE(r.valid);
  EXPECT_TRUE(is_valid_demands(inst, r.schedule));
  EXPECT_EQ(r.schedule.machine_count(), 2);
}

TEST(Registry, FirstFitDemandsNeedsEveryDemandWithinG) {
  // A demand above g fits no machine: the solver must refuse the instance
  // instead of running into its precondition.
  std::vector<Job> jobs{Job(0, 10), Job(5, 15)};
  jobs[1].demand = 99;
  const Instance oversized(jobs, /*g=*/3);
  const SolverSpec spec = SolverSpec::parse("first_fit_demands");
  EXPECT_THROW(run_solver(oversized, spec), NotApplicableError);
  jobs[1].demand = 3;
  const SolveResult r = run_solver(Instance(jobs, 3), spec);
  EXPECT_TRUE(r.valid);
}

TEST(Registry, DuplicateRegistrationThrows) {
  SolverRegistry local;
  SolverInfo info;
  info.name = "dup";
  info.applicable = [](const Instance&) { return true; };
  info.run = [](const Instance&, const SolverSpec&) { return SolveResult{}; };
  local.add(info);
  EXPECT_THROW(local.add(info), std::invalid_argument);
  SolverInfo broken;
  broken.name = "broken";
  EXPECT_THROW(local.add(broken), std::invalid_argument);
}

TEST(Registry, TraceReportsPerComponentDispatch) {
  // A trace workload decomposes into several components; the auto solver's
  // trace must cover every job exactly once.
  TraceParams p;
  p.n = 80;
  p.g = 4;
  p.seed = 17;
  const Instance inst = gen_trace(p);
  const SolveResult result = run_solver(inst, SolverSpec::parse("auto"));
  std::size_t traced = 0;
  for (const auto& entry : result.trace) {
    traced += entry.jobs;
    EXPECT_NE(SolverRegistry::instance().find(entry.algo), nullptr) << entry.algo;
  }
  EXPECT_EQ(traced, inst.size());
}

}  // namespace
}  // namespace busytime
