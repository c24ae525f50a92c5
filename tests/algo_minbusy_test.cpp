// Tests for the MinBusy algorithms of Section 3: each algorithm is checked
// for validity, and its measured ratio against the exact optimum is checked
// against the proven bound on randomized instance sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "algo/best_cut.hpp"
#include "algo/clique_matching.hpp"
#include "algo/clique_setcover.hpp"
#include "algo/dispatch.hpp"
#include "algo/exact_minbusy.hpp"
#include "algo/first_fit.hpp"
#include "algo/one_sided.hpp"
#include "algo/proper_clique_dp.hpp"
#include "core/bounds.hpp"
#include "core/classify.hpp"
#include "core/validate.hpp"
#include "workload/generators.hpp"

namespace busytime {
namespace {

double harmonic(int g) {
  double h = 0;
  for (int k = 1; k <= g; ++k) h += 1.0 / k;
  return h;
}

// ---------------------------------------------------------------- one-sided

TEST(OneSided, CostFormula) {
  // Lengths 10, 7, 5, 3 with g = 2: groups {10,7},{5,3} -> 10 + 5.
  EXPECT_EQ(one_sided_cost({10, 7, 5, 3}, 2), 15);
  EXPECT_EQ(one_sided_cost({10, 7, 5, 3}, 4), 10);
  EXPECT_EQ(one_sided_cost({10, 7, 5, 3}, 1), 25);
  EXPECT_EQ(one_sided_cost({}, 3), 0);
}

TEST(OneSided, MatchesExactOnRandomOneSidedInstances) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GenParams p;
    p.n = 10;
    p.g = static_cast<int>(1 + seed % 5);
    p.min_len = 2;
    p.max_len = 50;
    p.seed = seed;
    const Instance inst = gen_one_sided(p);
    const Schedule s = solve_one_sided(inst);
    EXPECT_TRUE(is_valid(inst, s));
    const Time opt = exact_minbusy_cost(inst).value();
    EXPECT_EQ(s.cost(inst), opt) << "Observation 3.1 violated, seed=" << seed;
    std::vector<Time> lengths;
    for (const auto& j : inst.jobs()) lengths.push_back(j.length());
    EXPECT_EQ(one_sided_cost(lengths, p.g), opt);
  }
}

// ----------------------------------------------------------------- FirstFit

TEST(FirstFit, ValidAndWithinFourTimesOptimum) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GenParams p;
    p.n = 10;
    p.g = static_cast<int>(1 + seed % 4);
    p.horizon = 80;
    p.min_len = 4;
    p.max_len = 30;
    p.seed = seed * 7;
    const Instance inst = gen_general(p);
    const Schedule s = solve_first_fit(inst);
    EXPECT_TRUE(is_valid(inst, s));
    EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(inst.size()));
    const Time opt = exact_minbusy_cost(inst).value();
    EXPECT_LE(s.cost(inst), 4 * opt) << "[13]'s 4-approximation violated";
  }
}

TEST(FirstFit, SingleMachineWhenEverythingFits) {
  // g = 3, three pairwise-overlapping jobs -> one machine.
  const Instance inst({Job(0, 10), Job(2, 12), Job(4, 14)}, 3);
  const Schedule s = solve_first_fit(inst);
  EXPECT_EQ(s.machine_count(), 1);
  EXPECT_EQ(s.cost(inst), 14);
}

// ------------------------------------------------------------------ BestCut

TEST(BestCut, PhaseCostsHasGEntries) {
  GenParams p;
  p.n = 20;
  p.g = 5;
  p.seed = 3;
  const Instance inst = gen_proper(p);
  const auto costs = best_cut_phase_costs(inst);
  ASSERT_EQ(costs.size(), 5u);
  const Schedule s = solve_best_cut(inst);
  EXPECT_EQ(s.cost(inst), *std::min_element(costs.begin(), costs.end()));
}

TEST(BestCut, WithinTheoremBoundOnRandomProperInstances) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    GenParams p;
    p.n = 11;
    p.g = static_cast<int>(2 + seed % 3);
    p.horizon = 120;
    p.min_len = 10;
    p.max_len = 60;
    p.seed = seed * 13;
    const Instance inst = gen_proper(p);
    ASSERT_TRUE(is_proper(inst));
    const Schedule s = solve_best_cut(inst);
    EXPECT_TRUE(is_valid(inst, s));
    const Time opt = exact_minbusy_cost(inst).value();
    const double bound = 2.0 - 1.0 / inst.g();
    EXPECT_LE(static_cast<double>(s.cost(inst)), bound * static_cast<double>(opt) + 1e-9)
        << "Theorem 3.1 bound violated, seed=" << seed;
  }
}

TEST(BestCut, ExactWhenGIsOne) {
  // g = 1: only one phase; every machine runs one job... (phase 1 groups of
  // 1) so cost = len(J), which is optimal for g = 1 only when no two jobs
  // can share. With g = 1 sharing never helps concurrency but disjoint jobs
  // could share a machine at no extra cost, so cost = len(J) = OPT.
  GenParams p;
  p.n = 8;
  p.g = 1;
  p.seed = 5;
  const Instance inst = gen_proper(p);
  const Schedule s = solve_best_cut(inst);
  EXPECT_EQ(s.cost(inst), exact_minbusy_cost(inst).value());
}

// --------------------------------------------------- clique g = 2 (matching)

TEST(CliqueMatching, OptimalOnRandomCliquesG2) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GenParams p;
    p.n = 11;
    p.g = 2;
    p.horizon = 200;
    p.min_len = 5;
    p.max_len = 100;
    p.seed = seed * 3 + 1;
    const Instance inst = gen_clique(p);
    ASSERT_TRUE(is_clique(inst));
    const Schedule s = solve_clique_g2_matching(inst);
    EXPECT_TRUE(is_valid(inst, s));
    const Time opt = exact_minbusy_cost(inst).value();
    EXPECT_EQ(s.cost(inst), opt) << "Lemma 3.1 optimality violated, seed=" << seed;
  }
}

TEST(CliqueMatching, PairingValidForLargerG) {
  GenParams p;
  p.n = 17;
  p.g = 5;
  p.seed = 77;
  const Instance inst = gen_clique(p);
  const Schedule s = solve_clique_pairing(inst);
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(inst.size()));
}

// --------------------------------------------------------- clique set cover

TEST(CliqueSetCover, FamilySizeFormula) {
  EXPECT_EQ(clique_setcover_family_size(4, 2), 4u + 6u);
  EXPECT_EQ(clique_setcover_family_size(5, 3), 5u + 10u + 10u);
  EXPECT_EQ(clique_setcover_family_size(3, 10), 7u);  // all non-empty subsets
  EXPECT_GT(clique_setcover_family_size(1000, 6), kMaxSetCoverFamily);
}

TEST(CliqueSetCover, WithinLemmaBoundOnRandomCliques) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GenParams p;
    p.n = 10;
    p.g = static_cast<int>(2 + seed % 4);  // g in [2, 5]
    p.horizon = 300;
    p.min_len = 10;
    p.max_len = 150;
    p.seed = seed * 17;
    const Instance inst = gen_clique(p);
    const Schedule s = solve_clique_setcover(inst);
    EXPECT_TRUE(is_valid(inst, s));
    EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(inst.size()));
    const Time opt = exact_minbusy_cost(inst).value();
    const double hg = harmonic(inst.g());
    const double bound = inst.g() * hg / (hg + inst.g() - 1);
    EXPECT_LE(static_cast<double>(s.cost(inst)), bound * static_cast<double>(opt) + 1e-9)
        << "Lemma 3.2 bound violated, seed=" << seed << " g=" << inst.g();
  }
}

TEST(CliqueSetCover, UnshapedVariantIsValidToo) {
  GenParams p;
  p.n = 12;
  p.g = 3;
  p.seed = 5;
  const Instance inst = gen_clique(p);
  const Schedule s = solve_clique_setcover_unshaped(inst);
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(inst.size()));
}

// --------------------------------------------------------- proper clique DP

TEST(ProperCliqueDp, OptimalOnRandomProperCliques) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    GenParams p;
    p.n = 12;
    p.g = static_cast<int>(1 + seed % 5);
    p.horizon = 100;
    p.seed = seed * 23;
    const Instance inst = gen_proper_clique(p);
    ASSERT_TRUE(is_proper(inst) && is_clique(inst)) << inst.summary();
    const Schedule s = solve_proper_clique_dp(inst);
    EXPECT_TRUE(is_valid(inst, s));
    const Time opt = exact_minbusy_cost(inst).value();
    EXPECT_EQ(s.cost(inst), opt) << "Theorem 3.2 optimality violated, seed=" << seed;
    EXPECT_EQ(proper_clique_optimal_cost(inst), opt);
  }
}

TEST(ProperCliqueDp, MachinesHoldConsecutiveJobs) {
  GenParams p;
  p.n = 30;
  p.g = 4;
  p.seed = 9;
  const Instance inst = gen_proper_clique(p);
  const Schedule s = solve_proper_clique_dp(inst);
  const auto order = inst.ids_by_start();
  // Lemma 3.3: every machine's jobs are consecutive in the proper order.
  std::vector<int> pos(inst.size());
  for (std::size_t k = 0; k < order.size(); ++k)
    pos[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  for (const auto& group : s.jobs_per_machine()) {
    if (group.empty()) continue;
    int lo = static_cast<int>(inst.size()), hi = -1;
    for (const JobId j : group) {
      lo = std::min(lo, pos[static_cast<std::size_t>(j)]);
      hi = std::max(hi, pos[static_cast<std::size_t>(j)]);
    }
    EXPECT_EQ(hi - lo + 1, static_cast<int>(group.size()))
        << "non-consecutive machine group";
  }
}

TEST(ProperCliqueDp, HandlesSingleJobAndEmpty) {
  const Instance one({Job(3, 9)}, 4);
  EXPECT_EQ(solve_proper_clique_dp(one).cost(one), 6);
  const Instance empty(std::vector<Job>{}, 4);
  EXPECT_EQ(solve_proper_clique_dp(empty).cost(empty), 0);
}

// ----------------------------------------------------------------- dispatch

TEST(Dispatch, RoutesToExpectedAlgorithms) {
  GenParams p;
  p.n = 10;
  p.seed = 12;

  p.g = 3;
  {
    const auto r = solve_minbusy_auto(gen_one_sided(p));
    EXPECT_EQ(r.names, std::vector<std::string>{"one_sided"});
  }
  {
    const auto r = solve_minbusy_auto(gen_proper_clique(p));
    EXPECT_EQ(r.names, std::vector<std::string>{"proper_clique_dp"});
  }
  p.g = 2;
  {
    const auto r = solve_minbusy_auto(gen_clique(p));
    EXPECT_EQ(r.names, std::vector<std::string>{"clique_matching"});
  }
  p.g = 3;
  {
    const auto r = solve_minbusy_auto(gen_clique(p));
    EXPECT_EQ(r.names, std::vector<std::string>{"clique_setcover"});
  }
  {
    const auto r = solve_minbusy_auto(gen_proper(p));
    // Proper instances may decompose into several components; every
    // component must use BestCut (or a stronger clique algorithm).
    ASSERT_FALSE(r.names.empty());
    for (const std::string& name : r.names)
      EXPECT_TRUE(name == "best_cut" || name == "proper_clique_dp" ||
                  name == "one_sided" || name == "clique_setcover")
          << name;
  }
}

TEST(Dispatch, ValidOnAllFamilies) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    GenParams p;
    p.n = 25;
    p.g = static_cast<int>(1 + seed % 5);
    p.seed = seed;
    for (const Instance& inst :
         {gen_general(p), gen_clique(p), gen_proper(p), gen_proper_clique(p),
          gen_one_sided(p)}) {
      const auto r = solve_minbusy_auto(inst);
      EXPECT_TRUE(is_valid(inst, r.schedule)) << inst.summary();
      EXPECT_EQ(r.schedule.throughput(), static_cast<std::int64_t>(inst.size()));
      EXPECT_TRUE(compute_bounds(inst).admissible(r.schedule.cost(inst)));
    }
  }
}

// Proposition 2.1: ANY valid full schedule is a g-approximation.
TEST(Proposition21, EveryAlgorithmWithinGTimesOptimum) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GenParams p;
    p.n = 9;
    p.g = static_cast<int>(2 + seed % 3);
    p.seed = seed * 41;
    const Instance inst = gen_general(p);
    const Time opt = exact_minbusy_cost(inst).value();
    for (const Schedule& s : {solve_first_fit(inst), one_job_per_machine(inst)}) {
      EXPECT_LE(s.cost(inst), static_cast<Time>(inst.g()) * opt);
    }
  }
}

}  // namespace
}  // namespace busytime
