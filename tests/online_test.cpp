// Tests for the online streaming scheduler engine (src/online/).
#include "online/stream_driver.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "api/registry.hpp"
#include "core/bounds.hpp"
#include "core/validate.hpp"
#include "online/epoch_hybrid.hpp"
#include "online/machine_pool.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

Instance small_trace(std::uint64_t seed, int n = 300, int g = 4) {
  TraceParams p;
  p.n = n;
  p.g = g;
  p.seed = seed;
  return gen_trace(p);
}

constexpr OnlinePolicy kAllPolicies[] = {
    OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit, OnlinePolicy::kEpochHybrid};

/// Calls body(policy, sched) with a fresh scheduler of each policy class at
/// capacity g, the classes the stream driver's replay loop runs.
template <class Body>
void for_each_policy(int g, Body&& body) {
  OnlineFirstFit first_fit(g);
  body(OnlinePolicy::kFirstFit, first_fit);
  OnlineBestFit best_fit(g);
  body(OnlinePolicy::kBestFit, best_fit);
  EpochHybrid hybrid(g, PolicyParams{});
  body(OnlinePolicy::kEpochHybrid, hybrid);
}

// ------------------------------------------------------------ machine pool

TEST(MachinePool, IncrementalBusyTimeHandlesOverlapTouchAndGap) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m = pool.open_machine(/*pinned=*/true);
  pool.place(m, {0, 10});
  EXPECT_EQ(pool.stats().online_cost, 10);
  pool.advance(5);
  pool.place(m, {5, 12});  // overlap: extends the segment by 2
  EXPECT_EQ(pool.stats().online_cost, 12);
  pool.advance(12);
  pool.place(m, {12, 15});  // touching: busy time additive either way
  EXPECT_EQ(pool.stats().online_cost, 15);
  pool.advance(20);
  pool.place(m, {20, 24});  // idle gap: fresh segment, full length
  EXPECT_EQ(pool.stats().online_cost, 19);
}

TEST(MachinePool, ExtensionNeverExceedsLength) {
  MachinePool pool(3);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 100});
  pool.advance(40);
  EXPECT_EQ(pool.extension(m, {40, 80}), 0);    // swallowed by the segment
  EXPECT_EQ(pool.extension(m, {40, 130}), 30);  // partial extension
  EXPECT_EQ(pool.extension(m, {40, 41}), 0);
}

TEST(MachinePool, IdleMachinesCloseAndCapacityIsEnforced) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 4});
  pool.place(m, {0, 6});
  EXPECT_FALSE(pool.fits(m));  // 2 active = g
  pool.advance(4);
  EXPECT_TRUE(pool.fits(m));   // one retired
  pool.advance(6);             // all retired -> machine closes
  EXPECT_TRUE(pool.open_machines().empty());
  EXPECT_EQ(pool.stats().machines_closed, 1);
  EXPECT_EQ(pool.stats().open_machines, 0);
}

// -------------------------------------------------------- arrival ordering

TEST(OnlineScheduler, RejectsOutOfOrderArrivals) {
  OnlineFirstFit ff(2);
  ff.on_arrival(0, Job(10, 20));
  EXPECT_THROW(ff.on_arrival(1, Job(5, 15)), std::invalid_argument);
}

// No job is assigned before its start: the engine clock (latest stream time)
// is always >= the start of every job already assigned.
TEST(OnlineScheduler, NeverAssignsBeforeArrival) {
  const Instance trace = small_trace(12);
  for_each_policy(trace.g(), [&](OnlinePolicy policy, auto& sched) {
    for (const JobId id : trace.ids_by_start()) {
      sched.on_arrival(id, trace.job(id));
      const Schedule& s = sched.schedule();
      for (std::size_t j = 0; j < s.size(); ++j) {
        if (!s.is_scheduled(static_cast<JobId>(j))) continue;
        EXPECT_LE(trace.job(static_cast<JobId>(j)).start(), sched.stats().clock)
            << to_string(policy);
      }
    }
    sched.flush();
    // After flush the schedule is full.
    for (std::size_t j = 0; j < trace.size(); ++j)
      EXPECT_TRUE(sched.schedule().is_scheduled(static_cast<JobId>(j)));
  });
}

// ------------------------------------------------- feasibility + accounting

TEST(OnlineScheduler, SchedulesAreValidAndCostMatchesIncrementalAccounting) {
  for (const std::uint64_t seed : {1u, 7u, 99u}) {
    for (const int g : {1, 2, 8}) {
      const Instance trace = small_trace(seed, 400, g);
      for_each_policy(trace.g(), [&](OnlinePolicy policy, auto& sched) {
        for (const JobId id : trace.ids_by_start())
          sched.on_arrival(id, trace.job(id));
        sched.flush();
        EXPECT_EQ(find_violation(trace, sched.schedule()), std::nullopt)
            << to_string(policy) << " seed=" << seed << " g=" << g;
        // The incrementally maintained busy time equals the offline
        // recomputation of cost(s) — the engine never drifts.
        EXPECT_EQ(sched.stats().online_cost, sched.schedule().cost(trace))
            << to_string(policy) << " seed=" << seed << " g=" << g;
        EXPECT_EQ(sched.stats().jobs_assigned,
                  static_cast<std::int64_t>(trace.size()));
        EXPECT_EQ(sched.stats().machines_opened,
                  sched.stats().machines_closed + sched.stats().open_machines);
      });
    }
  }
}

TEST(OnlineScheduler, GreedyPeakLoadEqualsInstanceConcurrency) {
  const Instance trace = small_trace(21, 500, 3);
  for (const OnlinePolicy policy :
       {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit}) {
    const ReplayResult r = replay_stream(trace, policy, {});
    EXPECT_EQ(r.stats.peak_active_jobs, max_concurrency(trace)) << to_string(policy);
  }
}

// Regression: batch replay places jobs at past instants; a job already
// completed by the replay clock must not count as concurrently active, or
// the hybrid's peak-load counter inflates (here it would report 2).
TEST(EpochHybrid, ReplayedPastJobsDoNotInflatePeakLoad) {
  const Instance trace({Job(0, 10), Job(500, 510)}, 2);
  EpochHybrid hybrid(trace.g(), PolicyParams{});
  for (const JobId id : trace.ids_by_start()) hybrid.on_arrival(id, trace.job(id));
  hybrid.flush();
  EXPECT_EQ(hybrid.stats().peak_active_jobs, 1);
  EXPECT_EQ(hybrid.stats().online_cost, hybrid.schedule().cost(trace));
}

TEST(EpochHybrid, BatchCapForcesFlushAndStaysValid) {
  const Instance trace = small_trace(33, 500, 4);
  // A 2^20 epoch never triggers by time; a batch of 7 always triggers by cap.
  const SolveResult r =
      run_solver(trace, SolverSpec::parse("epoch_hybrid:epoch=1048576,max_batch=7"));
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.stats.jobs_assigned, static_cast<std::int64_t>(trace.size()));
}

// ------------------------------------------------------------- determinism

TEST(OnlineScheduler, DeterministicUnderFixedSeed) {
  const Instance a = small_trace(2012);
  const Instance b = small_trace(2012);
  for (const OnlinePolicy policy : kAllPolicies) {
    const ReplayResult ra = replay_stream(a, policy, {});
    const ReplayResult rb = replay_stream(b, policy, {});
    EXPECT_EQ(ra.stats.online_cost, rb.stats.online_cost) << to_string(policy);
    EXPECT_EQ(ra.stats.machines_opened, rb.stats.machines_opened);
  }

  // Each policy class fed arrivals by hand, twice, assigns identically.
  const auto assignments = [](const Instance& trace) {
    std::vector<std::vector<MachineId>> out;
    for_each_policy(trace.g(), [&](OnlinePolicy, auto& sched) {
      for (const JobId id : trace.ids_by_start()) sched.on_arrival(id, trace.job(id));
      sched.flush();
      out.push_back(sched.schedule().assignment());
    });
    return out;
  };
  EXPECT_EQ(assignments(a), assignments(b));
}

// ----------------------------------------------------- online-vs-offline

// The paper's FirstFit baseline is a 4-approximation offline [13]; run
// incrementally it stays within 4x of the Observation 2.1 lower bound on
// these (seed-deterministic) traces.
TEST(OnlineScheduler, FirstFitWithinFourTimesLowerBound) {
  for (const std::uint64_t seed : {1u, 5u, 17u, 2012u}) {
    const Instance trace = small_trace(seed, 600, 8);
    const SolveResult r = run_solver(trace, SolverSpec::parse("online_first_fit"));
    EXPECT_TRUE(r.valid);
    EXPECT_LE(r.ratio_to_lower_bound, 4.0) << "seed=" << seed;
    EXPECT_GE(r.ratio_to_lower_bound, 1.0) << "seed=" << seed;
  }
}

// The acceptance bar of the streaming engine: batching + offline
// re-optimization is never worse than pure greedy first-fit on the default
// diurnal trace.
TEST(OnlineScheduler, EpochHybridBeatsFirstFitOnDiurnalTrace) {
  TraceParams p;
  p.n = 2000;
  p.g = 8;
  p.diurnal = true;
  p.seed = 7;
  const Instance trace = gen_trace(p);
  const SolveResult ff = run_solver(trace, SolverSpec::parse("online_first_fit"));
  const SolveResult hybrid = run_solver(trace, SolverSpec::parse("epoch_hybrid"));
  EXPECT_TRUE(ff.valid);
  EXPECT_TRUE(hybrid.valid);
  EXPECT_LE(hybrid.cost, ff.cost);
}

}  // namespace
}  // namespace busytime
