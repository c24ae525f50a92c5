// Tests for Schedule cost/throughput/saving accounting and validity checks,
// and for measure_schedule, the one-pass measurement every solve result is
// finalized with, against the from-scratch oracles (Schedule::cost,
// throughput, is_valid, compute_bounds).
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <string>

#include "api/registry.hpp"
#include "core/bounds.hpp"
#include "core/validate.hpp"
#include "util/prng.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

Instance three_job_instance(int g = 2) {
  // Jobs: [0,4), [2,6), [8,10).
  return Instance({Job(0, 4), Job(2, 6), Job(8, 10)}, g);
}

TEST(Schedule, OneJobPerMachineCostEqualsTotalLength) {
  const Instance inst = three_job_instance();
  const Schedule s = one_job_per_machine(inst);
  EXPECT_EQ(s.cost(inst), inst.total_length());
  EXPECT_EQ(s.saving(inst), 0);
  EXPECT_EQ(s.throughput(), 3);
  EXPECT_TRUE(is_valid(inst, s));
}

TEST(Schedule, GroupedCostIsUnionLengthPerMachine) {
  const Instance inst = three_job_instance();
  // Jobs 0 and 1 overlap on [2,4): together span [0,6) = 6; job 2 alone = 2.
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1}, {2}});
  EXPECT_EQ(s.cost(inst), 6 + 2);
  EXPECT_EQ(s.saving(inst), inst.total_length() - 8);  // = 2 (the overlap)
  EXPECT_TRUE(is_valid(inst, s));
}

TEST(Schedule, MachineWithDisjointJobsCostsUnionNotHull) {
  // Jobs [0,2) and [8,10) on one machine: busy time 4, not 10.  This matches
  // the paper's WLOG that a machine with a disconnected busy period can be
  // split into several machines without changing the total busy time.
  const Instance inst({Job(0, 2), Job(8, 10)}, 2);
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1}});
  EXPECT_EQ(s.cost(inst), 4);
  EXPECT_EQ(s.machine_busy_time(inst, 0), 4);
}

TEST(Schedule, PartialScheduleAccounting) {
  const Instance inst = three_job_instance();
  Schedule s(inst.size());
  EXPECT_EQ(s.throughput(), 0);
  EXPECT_EQ(s.cost(inst), 0);
  s.assign(1, 0);
  EXPECT_EQ(s.throughput(), 1);
  EXPECT_EQ(s.cost(inst), 4);
  EXPECT_FALSE(s.is_scheduled(0));
  EXPECT_TRUE(s.is_scheduled(1));
  s.unschedule(1);
  EXPECT_EQ(s.throughput(), 0);
}

TEST(Schedule, StreamingAppendGrowsTheAssignment) {
  Schedule s(0);
  EXPECT_EQ(s.append(3), 0);
  EXPECT_EQ(s.append(Schedule::kUnscheduled), 1);
  EXPECT_EQ(s.append(0), 2);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.machine_of(0), 3);
  EXPECT_FALSE(s.is_scheduled(1));
  EXPECT_EQ(s.throughput(), 2);
}

TEST(Schedule, EnsureSizeGrowsWithUnscheduledAndNeverShrinks) {
  Schedule s(2);
  s.assign(0, 5);
  s.ensure_size(4);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.machine_of(0), 5);  // existing assignments survive
  EXPECT_FALSE(s.is_scheduled(2));
  EXPECT_FALSE(s.is_scheduled(3));
  s.ensure_size(1);
  EXPECT_EQ(s.size(), 4u);  // no shrinking
}

TEST(Schedule, CompactRenumbersDensely) {
  Schedule s(std::vector<MachineId>{7, Schedule::kUnscheduled, 3, 7});
  s.compact();
  EXPECT_EQ(s.machine_of(0), 0);
  EXPECT_EQ(s.machine_of(1), Schedule::kUnscheduled);
  EXPECT_EQ(s.machine_of(2), 1);
  EXPECT_EQ(s.machine_of(3), 0);
  EXPECT_EQ(s.machine_count(), 2);
}

TEST(Validate, DetectsCapacityViolation) {
  // Three pairwise-overlapping jobs on one machine with g = 2.
  const Instance inst({Job(0, 10), Job(1, 9), Job(2, 8)}, 2);
  const Schedule bad = schedule_from_groups(inst.size(), {{0, 1, 2}});
  const auto violation = find_violation(inst, bad);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->machine, 0);
  EXPECT_EQ(violation->concurrency, 3);
  EXPECT_FALSE(is_valid(inst, bad));
  // Splitting any one job off fixes it.
  const Schedule good = schedule_from_groups(inst.size(), {{0, 1}, {2}});
  EXPECT_TRUE(is_valid(inst, good));
}

TEST(Validate, TouchingJobsShareAThread) {
  // g = 1 machine can run [0,5) then [5,9): no time has two jobs.
  const Instance inst({Job(0, 5), Job(5, 9)}, 1);
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1}});
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(s.cost(inst), 9);
}

TEST(Validate, MoreThanGJobsOkIfNotConcurrent) {
  // g = 2 machine running 4 jobs in two lanes.
  const Instance inst({Job(0, 4), Job(0, 4), Job(4, 8), Job(4, 8)}, 2);
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1, 2, 3}});
  EXPECT_TRUE(is_valid(inst, s));
  EXPECT_EQ(max_concurrency(inst), 2);
}

TEST(Bounds, Observation21) {
  const Instance inst = three_job_instance(2);
  const CostBounds b = compute_bounds(inst);
  EXPECT_EQ(b.length, 10);
  EXPECT_EQ(b.span, 8);  // [0,6) u [8,10)
  // Lower bound: max(span, len/g) = max(8, 5) = 8.
  EXPECT_DOUBLE_EQ(b.lower_bound(), 8.0);
  EXPECT_TRUE(b.admissible(8));
  EXPECT_TRUE(b.admissible(10));
  EXPECT_FALSE(b.admissible(7));   // below span bound
  EXPECT_FALSE(b.admissible(11));  // above length bound
}

TEST(Bounds, ParallelismBoundDominatesWhenJobsStack) {
  // 4 identical jobs, g = 2: span = 10 but len/g = 20.
  const Instance inst({Job(0, 10), Job(0, 10), Job(0, 10), Job(0, 10)}, 2);
  const CostBounds b = compute_bounds(inst);
  EXPECT_DOUBLE_EQ(b.lower_bound(), 20.0);
  EXPECT_EQ(ratio_to_lower_bound(inst, 20), 1.0);
}

// Property: any valid full schedule on random instances respects all
// Observation 2.1 bounds (Proposition 2.1's g-approximation argument).
TEST(Bounds, RandomFullSchedulesAreAdmissible) {
  Rng rng(424242);
  for (int rep = 0; rep < 100; ++rep) {
    const int n = static_cast<int>(rng.uniform_int(1, 14));
    const int g = static_cast<int>(rng.uniform_int(1, 4));
    std::vector<Job> jobs;
    for (int i = 0; i < n; ++i) {
      const Time s = rng.uniform_int(0, 40);
      jobs.emplace_back(s, s + rng.uniform_int(1, 15));
    }
    const Instance inst(std::move(jobs), g);

    // Random valid schedule: first-fit into random order of machines.
    Schedule s(inst.size());
    for (int j = 0; j < n; ++j) {
      for (MachineId m = 0;; ++m) {
        s.assign(j, m);
        if (is_valid(inst, s)) break;
      }
    }
    ASSERT_TRUE(is_valid(inst, s));
    const CostBounds b = compute_bounds(inst);
    EXPECT_TRUE(b.admissible(s.cost(inst))) << inst.summary();
  }
}

/// measure_schedule must agree with every oracle, field by field.
void expect_measure_matches_oracles(const Instance& inst, const Schedule& s,
                                    const std::string& label) {
  const ScheduleMeasure m = measure_schedule(inst, s);
  const CostBounds b = compute_bounds(inst);
  const Time cost = s.cost(inst);
  EXPECT_EQ(m.cost, cost) << label;
  EXPECT_EQ(m.throughput, s.throughput()) << label;
  EXPECT_EQ(m.valid, is_valid(inst, s)) << label;
  EXPECT_EQ(m.bounds.length, b.length) << label;
  EXPECT_EQ(m.bounds.span, b.span) << label;
  EXPECT_EQ(m.bounds.parallelism_num, b.parallelism_num) << label;
  EXPECT_EQ(m.bounds.g, b.g) << label;
  if (!inst.empty()) {
    EXPECT_EQ(m.bounds.ratio(m.cost), ratio_to_lower_bound(inst, cost))
        << label;
  }
}

// Property: on the six generator families, the raw schedule of every
// applicable registered solver (partial ones from the budgeted throughput
// solvers included) measures exactly as the oracles do.
TEST(MeasureSchedule, MatchesOraclesOnEveryFamilyAndSolver) {
  const char* families[] = {"general", "clique", "proper", "proper_clique",
                            "one_sided", "trace"};
  for (const std::string family : families) {
    for (const int n : {9, 60}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        GenParams p;
        p.n = n;
        p.g = static_cast<int>(seed) + 1;
        p.seed = seed;
        TraceParams t;
        t.n = n;
        t.g = p.g;
        t.seed = seed;
        const Instance inst = family == "general"         ? gen_general(p)
                              : family == "clique"        ? gen_clique(p)
                              : family == "proper"        ? gen_proper(p)
                              : family == "proper_clique" ? gen_proper_clique(p)
                              : family == "one_sided"     ? gen_one_sided(p)
                                                          : gen_trace(t);
        for (const SolverInfo* info : SolverRegistry::instance().all()) {
          if (!info->applicable(inst)) continue;
          SolverSpec spec;
          spec.name = info->name;
          if (info->needs_budget) spec.options.budget = inst.span() / 2;
          Schedule s = info->run(inst, spec).schedule;
          s.ensure_size(inst.size());
          expect_measure_matches_oracles(
              inst, s,
              family + " n=" + std::to_string(n) + " seed=" +
                  std::to_string(seed) + " " + info->name);
        }
      }
    }
  }
}

TEST(MeasureSchedule, MatchesOraclesOnAdversarialSchedules) {
  // Empty instance and a single job.
  expect_measure_matches_oracles(Instance({}, 3), Schedule(0), "empty");
  const Instance one({Job(5, 9)}, 1);
  expect_measure_matches_oracles(one, Schedule(1), "single job, unscheduled");
  expect_measure_matches_oracles(one, one_job_per_machine(one), "single job");

  // Half-open intervals: jobs touching the g-th slot's completion are not
  // concurrent with it; a one-unit overlap is.
  const Instance touching(
      {Job(0, 4), Job(0, 4), Job(4, 8), Job(4, 6), Job(6, 9)}, 2);
  const Schedule all_on_zero(std::vector<MachineId>(touching.size(), 0));
  EXPECT_TRUE(measure_schedule(touching, all_on_zero).valid);
  expect_measure_matches_oracles(touching, all_on_zero, "touching at g");
  const Instance overlapping({Job(0, 4), Job(0, 4), Job(3, 8)}, 2);
  const Schedule crowded(std::vector<MachineId>(overlapping.size(), 0));
  EXPECT_FALSE(measure_schedule(overlapping, crowded).valid);
  expect_measure_matches_oracles(overlapping, crowded, "overlap at g");

  // Random reassignments of a valid first-fit schedule break validity,
  // unschedule jobs, and spread machine ids with gaps between them.
  Rng rng(20240613);
  for (int rep = 0; rep < 200; ++rep) {
    TraceParams t;
    t.n = static_cast<int>(rng.uniform_int(2, 120));
    t.g = static_cast<int>(rng.uniform_int(1, 5));
    t.max_duration = rng.uniform_int(5, 200);
    t.seed = static_cast<std::uint64_t>(rep) + 1;
    const Instance inst = gen_trace(t);
    SolverSpec spec;
    spec.name = "first_fit";
    Schedule s =
        SolverRegistry::instance().at("first_fit").run(inst, spec).schedule;
    const MachineId machines = s.machine_count();
    const auto n = static_cast<std::int64_t>(inst.size());
    const std::int64_t moves = rng.uniform_int(0, n);
    for (std::int64_t k = 0; k < moves; ++k) {
      const auto j = static_cast<JobId>(rng.uniform_int(0, n - 1));
      const std::int64_t pick = rng.uniform_int(-1, machines);
      s.assign(j, pick < 0 ? Schedule::kUnscheduled
                           : static_cast<MachineId>(pick));
    }
    if (rep % 2 == 1) {
      for (std::size_t j = 0; j < s.size(); ++j) {
        const MachineId m = s.machine_of(static_cast<JobId>(j));
        if (m != Schedule::kUnscheduled)
          s.assign(static_cast<JobId>(j), m * 5 + 3);
      }
    }
    expect_measure_matches_oracles(inst, s, "rep " + std::to_string(rep));
  }

  // The schedule must cover exactly the instance's jobs.
  EXPECT_THROW(measure_schedule(one, Schedule(2)), std::invalid_argument);
}

}  // namespace
}  // namespace busytime
