// Edge cases and adversarial inputs across the whole stack: degenerate
// sizes, duplicate jobs, extreme coordinates, unit lengths, g larger than n,
// and the paper's own corner conventions.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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
#include "core/components.hpp"
#include "core/validate.hpp"
#include "rect/union_area.hpp"
#include "throughput/clique_tput.hpp"
#include "throughput/one_sided_tput.hpp"
#include "throughput/proper_clique_tput_dp.hpp"
#include "workload/generators.hpp"
#include "workload/rect_generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

// ------------------------------------------------------------- tiny inputs

TEST(EdgeCases, SingleJob) {
  const Instance inst({Job(5, 9)}, 3);
  const InstanceClass cls = classify(inst);
  EXPECT_TRUE(cls.clique && cls.proper && cls.one_sided);
  for (const Schedule& s :
       {solve_first_fit(inst), solve_one_sided(inst), solve_proper_clique_dp(inst),
        solve_clique_setcover(inst), solve_minbusy_auto(inst).schedule}) {
    EXPECT_TRUE(is_valid(inst, s));
    EXPECT_EQ(s.cost(inst), 4);
    EXPECT_EQ(s.machine_count(), 1);
  }
  EXPECT_EQ(solve_proper_clique_tput(inst, 3).throughput, 0);
  EXPECT_EQ(solve_proper_clique_tput(inst, 4).throughput, 1);
}

TEST(EdgeCases, EmptyInstanceEverywhere) {
  const Instance inst(std::vector<Job>{}, 2);
  EXPECT_EQ(solve_first_fit(inst).cost(inst), 0);
  EXPECT_EQ(solve_minbusy_auto(inst).schedule.cost(inst), 0);
  EXPECT_EQ(inst.span(), 0);
  EXPECT_EQ(inst.total_length(), 0);
  EXPECT_TRUE(connected_components(inst).empty());
  EXPECT_EQ(solve_proper_clique_tput(inst, 100).throughput, 0);
}

TEST(EdgeCases, GLargerThanN) {
  // g = 100 >> n = 3: everything on one machine (they all overlap).
  const Instance inst({Job(0, 10), Job(5, 15), Job(8, 20)}, 100);
  const auto r = solve_minbusy_auto(inst);
  EXPECT_EQ(r.schedule.cost(inst), 20);
  EXPECT_EQ(r.schedule.machine_count(), 1);
  EXPECT_EQ(exact_minbusy_cost(inst).value(), 20);
}

TEST(EdgeCases, GEqualsOneNeverShares) {
  // g = 1: overlapping jobs cannot share, cost = len for pairwise
  // overlapping sets; disjoint jobs may still share at no benefit.
  const Instance inst({Job(0, 10), Job(5, 15), Job(9, 19)}, 1);
  const Time opt = exact_minbusy_cost(inst).value();
  EXPECT_EQ(opt, 30);
  EXPECT_EQ(solve_first_fit(inst).cost(inst), 30);
}

// g < 1 is no instance: the constructor throws in every build, naming g,
// instead of leaving FirstFit's grid rule to divide by zero or a greedy
// policy to report a negative lower bound.
TEST(EdgeCases, InstanceRejectsCapacityBelowOne) {
  for (const int g : {0, -2}) {
    try {
      const Instance inst({Job(0, 10)}, g);
      ADD_FAILURE() << "g=" << g << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "instance capacity g must be >= 1, got " + std::to_string(g));
    }
    EXPECT_THROW(Instance({}, g), std::invalid_argument);
  }
  EXPECT_EQ(Instance({Job(0, 10)}, 1).g(), 1);
}

// Job counts reach the generators straight from command-line flags, so a
// negative one is an error naming n, not a wrapped reserve.
TEST(EdgeCases, GeneratorsRejectANegativeJobCount) {
  const std::string expected = "job count n must be >= 0, got -5";
  const auto expect_rejected = [&](const char* what, const auto& generate) {
    try {
      generate();
      ADD_FAILURE() << what << " accepted n = -5";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), expected) << what;
    }
  };
  GenParams p;
  p.n = -5;
  expect_rejected("gen_general", [&] { return gen_general(p); });
  expect_rejected("gen_clique", [&] { return gen_clique(p); });
  expect_rejected("gen_proper", [&] { return gen_proper(p); });
  expect_rejected("gen_proper_clique", [&] { return gen_proper_clique(p); });
  expect_rejected("gen_one_sided", [&] { return gen_one_sided(p); });
  TraceParams tp;
  tp.n = -5;
  expect_rejected("gen_trace", [&] { return gen_trace(tp); });
  RectGenParams rp;
  rp.n = -5;
  expect_rejected("gen_rects", [&] { return gen_rects(rp); });
  // n = 0 is an empty instance from every generator.
  p.n = 0;
  tp.n = 0;
  rp.n = 0;
  EXPECT_TRUE(gen_general(p).empty());
  EXPECT_TRUE(gen_clique(p).empty());
  EXPECT_TRUE(gen_proper(p).empty());
  EXPECT_TRUE(gen_proper_clique(p).empty());
  EXPECT_TRUE(gen_one_sided(p).empty());
  EXPECT_TRUE(gen_trace(tp).empty());
  EXPECT_TRUE(gen_rects(rp).empty());
}

// -------------------------------------------------------------- duplicates

TEST(EdgeCases, ManyIdenticalJobs) {
  std::vector<Job> jobs(10, Job(3, 17));
  const Instance inst(std::move(jobs), 4);
  const auto r = solve_minbusy_auto(inst);
  EXPECT_TRUE(is_valid(inst, r.schedule));
  // ceil(10/4) = 3 machines, each paying the full span.
  EXPECT_EQ(r.schedule.cost(inst), 3 * 14);
  EXPECT_EQ(exact_minbusy_cost(inst).value(), 3 * 14);

  // Budgeted: budget for exactly two machines -> 8 jobs.
  const TputResult tput = solve_proper_clique_tput(inst, 2 * 14);
  EXPECT_EQ(tput.throughput, 8);
}

TEST(EdgeCases, IdenticalJobsAreProperAndClique) {
  const Instance inst({Job(1, 5), Job(1, 5), Job(1, 5)}, 2);
  const InstanceClass cls = classify(inst);
  EXPECT_TRUE(cls.proper_clique());
  EXPECT_TRUE(cls.one_sided);
}

// ------------------------------------------------------- extreme coordinates

TEST(EdgeCases, LargeCoordinatesNoOverflow) {
  const Time big = Time{1} << 40;
  const Instance inst({Job(-big, -big + 1000), Job(big, big + 1000),
                       Job(-big + 500, -big + 1500)},
                      2);
  EXPECT_EQ(inst.total_length(), 3000);
  EXPECT_EQ(inst.span(), 2500);
  const auto r = solve_minbusy_auto(inst);
  EXPECT_TRUE(is_valid(inst, r.schedule));
  EXPECT_TRUE(compute_bounds(inst).admissible(r.schedule.cost(inst)));
}

TEST(EdgeCases, NegativeTimesWork) {
  const Instance inst({Job(-10, -2), Job(-5, 3), Job(-1, 7)}, 2);
  EXPECT_TRUE(is_clique(Instance({Job(-5, 3), Job(-1, 7)}, 2)));
  const Time opt = exact_minbusy_cost(inst).value();
  EXPECT_GE(opt, inst.span());
  EXPECT_LE(opt, inst.total_length());
}

TEST(EdgeCases, UnitLengthJobs) {
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i) jobs.emplace_back(i % 4, i % 4 + 1);
  const Instance inst(std::move(jobs), 3);
  const auto r = solve_minbusy_auto(inst);
  EXPECT_TRUE(is_valid(inst, r.schedule));
  // 3 identical jobs per unit slot, g = 3: one machine row can hold one
  // copy of each slot; optimal cost = 4 (one machine spanning all slots) =
  // span... len=12, span=4, OPT = 4 (three machines of span 4 each? No:
  // 12 jobs / 3-per-slot: each slot has 3 copies; a machine can run 3
  // concurrently so one machine runs all of slot's 3 copies; 4 slots x
  // busy 1 = 4 if consolidated on one machine.
  EXPECT_EQ(exact_minbusy_cost(inst).value(), 4);
}

// ------------------------------------------------- paper corner conventions

TEST(EdgeCases, TouchingJobsChainOnOneMachineG1) {
  // [0,1), [1,2), ..., [9,10) all on one machine with g = 1.
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.emplace_back(i, i + 1);
  const Instance inst(std::move(jobs), 1);
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}});
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.cost(inst), 10);
  EXPECT_EQ(exact_minbusy_cost(inst).value(), 10);
}

TEST(EdgeCases, BestCutHandlesNLessThanG) {
  const Instance inst({Job(0, 5), Job(2, 8)}, 6);
  const Schedule s = solve_best_cut(inst);
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.cost(inst), 8);  // both jobs on one machine
}

TEST(EdgeCases, CliqueMatchingOddJobCount) {
  const Instance inst({Job(0, 10), Job(2, 12), Job(4, 14)}, 2);
  const Schedule s = solve_clique_g2_matching(inst);
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.throughput(), 3);
  EXPECT_EQ(s.cost(inst), exact_minbusy_cost(inst).value());
}

TEST(EdgeCases, OneSidedTputBudgetBelowShortestJob) {
  const Instance inst({Job(0, 5), Job(0, 9)}, 2);
  const TputResult r = solve_one_sided_tput(inst, 4);
  EXPECT_EQ(r.throughput, 0);
  EXPECT_EQ(r.cost, 0);
}

TEST(EdgeCases, CliqueTputZeroBudget) {
  const Instance inst({Job(0, 5), Job(1, 6)}, 2);
  const TputResult r = solve_clique_tput(inst, 0);
  EXPECT_EQ(r.throughput, 0);
  EXPECT_TRUE(is_valid(inst, r.schedule));
}

// ----------------------------------------------------------------- 2-D odds

TEST(EdgeCases, UnionAreaHugeCoordinates) {
  const Time big = Time{1} << 30;
  EXPECT_EQ(union_area({Rect(0, big, 0, 2), Rect(0, 2, 0, big)}),
            2 * big + 2 * big - 4);
}

TEST(EdgeCases, UnionAreaManyIdenticalRects) {
  std::vector<Rect> rects(50, Rect(0, 7, 0, 3));
  EXPECT_EQ(union_area(rects), 21);
}

}  // namespace
}  // namespace busytime
