// Cancellation & preemption in the online engine: busy-time refunds, slot
// recycling, residual-instance equivalence, and the sharded-replay
// determinism contract with retraction events in the stream.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "algo/dispatch.hpp"
#include "api/registry.hpp"
#include "core/validate.hpp"
#include "io/serialize.hpp"
#include "online/epoch_hybrid.hpp"
#include "online/stream_driver.hpp"
#include "workload/cancellable.hpp"

namespace busytime {
namespace {

constexpr OnlinePolicy kAllPolicies[] = {
    OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit, OnlinePolicy::kEpochHybrid};

EventTrace cancellable_trace(std::uint64_t seed, int n = 400, int g = 4,
                             double cancel_rate = 0.3) {
  TraceParams tp;
  tp.n = n;
  tp.g = g;
  tp.seed = seed;
  CancelParams cp;
  cp.cancel_rate = cancel_rate;
  cp.seed = seed + 1;
  return gen_cancellable(tp, cp);
}

// ------------------------------------------------------------ machine pool

TEST(MachinePoolCancel, TruncatingTheSoleJobRefundsTheUncoveredTail) {
  MachinePool pool(2);
  pool.advance(0);
  const MachineId m = pool.open_machine();
  pool.place(m, {0, 100});
  EXPECT_EQ(pool.stats().online_cost, 100);
  pool.advance(40);
  EXPECT_EQ(pool.truncate(m, 100, /*preempt=*/false), 60);
  EXPECT_EQ(pool.stats().online_cost, 40);
  EXPECT_EQ(pool.stats().busy_time_refunded, 60);
  EXPECT_EQ(pool.stats().jobs_cancelled, 1);
  EXPECT_EQ(pool.stats().active_jobs, 0);
}

TEST(MachinePoolCancel, CoveredTailRefundsNothing) {
  MachinePool pool(2);
  pool.advance(0);
  const MachineId m = pool.open_machine();
  pool.place(m, {0, 100});
  pool.place(m, {0, 100});
  pool.advance(40);
  // The twin job still covers [40, 100): nothing to refund.
  EXPECT_EQ(pool.truncate(m, 100, /*preempt=*/true), 0);
  EXPECT_EQ(pool.stats().online_cost, 100);
  EXPECT_EQ(pool.stats().jobs_preempted, 1);
}

TEST(MachinePoolCancel, PartialCoverRefundsTheDifference) {
  MachinePool pool(2);
  pool.advance(0);
  const MachineId m = pool.open_machine();
  pool.place(m, {0, 100});
  pool.place(m, {0, 60});
  pool.advance(40);
  // [40, 60) stays covered by the second job; only [60, 100) is refunded.
  EXPECT_EQ(pool.truncate(m, 100, /*preempt=*/false), 40);
  EXPECT_EQ(pool.stats().online_cost, 60);
  // Placing after the truncation extends from the new frontier.
  EXPECT_EQ(pool.extension(m, {40, 90}), 30);
}

TEST(MachinePoolCancel, TruncationFreesACapacitySlot) {
  MachinePool pool(1);
  pool.advance(0);
  const MachineId m = pool.open_machine();
  pool.place(m, {0, 100});
  EXPECT_FALSE(pool.fits(m));
  pool.advance(50);
  pool.truncate(m, 100, /*preempt=*/false);
  EXPECT_TRUE(pool.fits(m));
}

// ------------------------------------------------------------ slot recycling

TEST(MachinePoolRecycling, ClosedSlotsAreReusedAndIdsStayStable) {
  MachinePool pool(2);
  pool.advance(0);
  const MachineId m0 = pool.open_machine();
  EXPECT_EQ(m0, 0);
  pool.place(m0, {0, 10});
  pool.advance(10);  // retires the job; machine 0 closes
  EXPECT_TRUE(pool.open_machines().empty());

  const MachineId m1 = pool.open_machine();
  EXPECT_EQ(m1, 1);  // external ids never reused
  EXPECT_EQ(pool.stats().slots_recycled, 1);
  EXPECT_EQ(pool.slot_count(), 1u);    // one backing struct serves both
  EXPECT_EQ(pool.machines_ever(), 2u);
  pool.place(m1, {10, 30});
  EXPECT_EQ(pool.extension(m1, {12, 25}), 0);  // fresh state, new segment
  EXPECT_EQ(pool.stats().online_cost, 30);
}

TEST(MachinePoolRecycling, RecycledCountMatchesItsInvariantOnAReplay) {
  const EventTrace trace = cancellable_trace(5, 600, 3);
  for (const OnlinePolicy policy : kAllPolicies) {
    const ReplayResult r = replay_stream(trace, policy, {});
    EXPECT_EQ(r.stats.slots_recycled,
              r.stats.machines_opened - r.stats.peak_open_machines)
        << to_string(policy);
  }
}

// ------------------------------------------------------------- event trace

TEST(EventTrace, CanonicalizationDropsIneffectiveRecordsAndSorts) {
  const Instance base({Job(0, 10), Job(5, 20), Job(30, 40)}, 2);
  const EventTrace trace(base, {
                                   {1, 12, false},  // effective
                                   {0, 0, false},   // at == start: dropped
                                   {0, 10, false},  // at == completion: dropped
                                   {2, 35, true},   // effective
                                   {1, 15, true},   // duplicate: dropped
                               });
  ASSERT_EQ(trace.cancels().size(), 2u);
  EXPECT_EQ(trace.dropped_cancels(), 3u);
  EXPECT_EQ(trace.cancels()[0], (CancelRecord{1, 12, false}));
  EXPECT_EQ(trace.cancels()[1], (CancelRecord{2, 35, true}));

  const Instance residual = trace.residual();
  EXPECT_EQ(residual.job(0).interval, Interval(0, 10));
  EXPECT_EQ(residual.job(1).interval, Interval(5, 12));
  EXPECT_EQ(residual.job(2).interval, Interval(30, 35));
}

TEST(EventTrace, RejectsOutOfRangeJobIds) {
  const Instance base({Job(0, 10)}, 2);
  EXPECT_THROW(EventTrace(base, {{1, 5, false}}), std::invalid_argument);
  EXPECT_THROW(EventTrace(base, {{-1, 5, false}}), std::invalid_argument);
}

// --------------------------------------------------------- scheduler level

TEST(OnlineSchedulerCancel, IgnoresLateEarlyAndDuplicateRetractions) {
  OnlineFirstFit ff(2);
  const Job job(0, 100);
  ff.on_arrival(0, job);
  ff.on_cancel(0, job, 100, false);  // at == completion: already done
  EXPECT_EQ(ff.stats().cancels_ignored, 1);
  ff.on_cancel(0, job, 100, false);  // still ignored, nothing retracted yet
  EXPECT_EQ(ff.stats().cancels_ignored, 2);
  // The out-of-order guard applies to retractions too.
  EXPECT_THROW(ff.on_cancel(0, job, 50, false), std::invalid_argument);

  OnlineFirstFit ff2(2);
  ff2.on_arrival(0, job);
  ff2.on_cancel(0, job, 60, false);
  EXPECT_EQ(ff2.stats().jobs_cancelled, 1);
  EXPECT_EQ(ff2.stats().busy_time_refunded, 40);
  ff2.on_cancel(0, job, 70, false);  // second retraction: no double refund
  EXPECT_EQ(ff2.stats().cancels_ignored, 1);
  EXPECT_EQ(ff2.stats().busy_time_refunded, 40);
}

TEST(OnlineSchedulerCancel, FreedSlotServesALaterArrival) {
  // g = 1: job 0 monopolizes machine 0 until its cancel at t=10 releases it;
  // the machine closes idle and job 1 opens a fresh, stable-id machine.
  OnlineFirstFit ff(1);
  ff.on_arrival(0, Job(0, 100));
  ff.on_cancel(0, Job(0, 100), 10, false);
  ff.on_arrival(1, Job(20, 30));
  EXPECT_EQ(ff.schedule().machine_of(0), 0);
  EXPECT_EQ(ff.schedule().machine_of(1), 1);
  EXPECT_EQ(ff.stats().slots_recycled, 1);
  EXPECT_EQ(ff.stats().online_cost, 10 + 10);
}

TEST(EpochHybridCancel, PendingJobsAreTruncatedBeforePlacement) {
  // Huge epoch: both jobs stay pending until flush, so the retraction must
  // edit the batch, not the pool.
  PolicyParams params;
  params.epoch_length = 1 << 20;
  EpochHybrid hybrid(2, params);
  hybrid.on_arrival(0, Job(0, 100));
  hybrid.on_arrival(1, Job(10, 50));
  hybrid.on_cancel(0, Job(0, 100), 30, false);
  hybrid.flush();
  EXPECT_EQ(hybrid.stats().jobs_cancelled, 1);
  EXPECT_EQ(hybrid.stats().busy_time_refunded, 0);  // never charged
  const Instance residual({Job(0, 30), Job(10, 50)}, 2);
  EXPECT_EQ(hybrid.stats().online_cost, hybrid.schedule().cost(residual));
  EXPECT_TRUE(is_valid(residual, hybrid.schedule()));
}

// ------------------------------------------- residual-instance equivalence

// The core accounting contract: replaying a stream with retractions yields
// exactly the cost of the produced schedule on the residual instance
// (retracted jobs truncated) — refunds are exact, for every policy.
TEST(CancelReplay, OnlineCostEqualsResidualCostForAllPolicies) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const int g : {1, 2, 8}) {
      for (const double rate : {0.1, 0.5}) {
        const EventTrace trace = cancellable_trace(seed, 400, g, rate);
        const Instance residual = trace.residual();
        for (const OnlinePolicy policy : kAllPolicies) {
          const std::string context = to_string(policy) + " seed=" +
                                      std::to_string(seed) + " g=" +
                                      std::to_string(g);
          const ReplayResult r = replay_stream(trace, policy, {});
          EXPECT_EQ(r.stats.online_cost, r.schedule.cost(residual)) << context;
          EXPECT_TRUE(is_valid(residual, r.schedule)) << context;
          EXPECT_EQ(r.stats.jobs_cancelled + r.stats.jobs_preempted,
                    static_cast<std::int64_t>(trace.cancels().size()))
              << context;
          EXPECT_EQ(r.stats.cancels_ignored, 0) << context;
          EXPECT_EQ(r.stats.machines_opened,
                    r.stats.machines_closed + r.stats.open_machines)
              << context;
        }
      }
    }
  }
}

// First-fit's placement rule sees only slot occupancy — and a retraction
// frees the slot at the same instant the residual job completes — so the
// replay with cancels must produce the *same assignments* as a from-scratch
// first-fit replay of the residual workload delivered in the same arrival
// order (retraction shortens a job's run, never moves its arrival; the
// residual's own ids_by_start() may tie-break equal starts differently
// because completions shrank, which is why the order is pinned explicitly).
// Same assignments + exact refunds then force the same total cost.
TEST(CancelReplay, FirstFitMatchesFromScratchResidualReplay) {
  for (const std::uint64_t seed : {3u, 11u, 2012u}) {
    const EventTrace trace = cancellable_trace(seed, 500, 4, 0.4);
    const Instance residual = trace.residual();
    const ReplayResult with_cancels =
        replay_stream(trace, OnlinePolicy::kFirstFit, {});

    OnlineFirstFit from_scratch(residual.g());
    for (const JobId id : trace.base().ids_by_start())
      from_scratch.on_arrival(id, residual.job(id));

    EXPECT_EQ(with_cancels.schedule.assignment(),
              from_scratch.schedule().assignment())
        << "seed=" << seed;
    EXPECT_EQ(with_cancels.stats.online_cost,
              from_scratch.stats().online_cost)
        << "seed=" << seed;
    EXPECT_EQ(with_cancels.stats.online_cost,
              from_scratch.schedule().cost(residual))
        << "seed=" << seed;
  }
}

// --------------------------------------------------------- sharded replay

TEST(CancelReplay, ShardedIdenticalToSequentialWithCancelsInTheStream) {
  // Sparse arrivals: many components, so component-boundary shard cuts
  // exist; retractions shard with their component.
  TraceParams tp;
  tp.n = 20000;
  tp.g = 6;
  tp.arrival_rate = 0.05;
  tp.min_duration = 5;
  tp.max_duration = 40;
  tp.seed = 13;
  CancelParams cp;
  cp.cancel_rate = 0.3;
  cp.seed = 14;
  const EventTrace trace = gen_cancellable(tp, cp);
  ASSERT_GT(trace.cancels().size(), 1000u);

  PolicyParams params;
  params.epoch_length = 64;  // small epochs so epoch-safe cuts exist
  for (const OnlinePolicy policy : kAllPolicies) {
    const ReplayResult base = replay_stream(trace, policy, params, 1);
    EXPECT_EQ(base.shards, 1u);
    for (const int threads : {2, 8}) {
      const ReplayResult r =
          replay_stream(trace, policy, params, threads, /*min_shard_jobs=*/512);
      const std::string context = to_string(policy) + " threads=" +
                                  std::to_string(threads) + " shards=" +
                                  std::to_string(r.shards);
      EXPECT_GT(r.shards, 1u) << context << " (sharding never engaged)";
      EXPECT_EQ(r.schedule.assignment(), base.schedule.assignment()) << context;
      EXPECT_EQ(r.stats, base.stats) << context;
    }
  }
}

// At equal instants the replay applies a retraction before an arrival: the
// job cancelled at 5 is no longer running when the next one arrives at 5,
// so the two never run at once.  Replayed the other way round, both would
// be active at t = 5.
TEST(CancelReplay, RetractionPrecedesArrivalAtEqualTimes) {
  const Instance base({Job(0, 10), Job(5, 20)}, 1);
  const EventTrace trace(base, {{0, 5, false}});
  for (const OnlinePolicy policy : kAllPolicies) {
    const ReplayResult r = replay_stream(trace, policy, {});
    EXPECT_EQ(r.stats.peak_active_jobs, 1) << to_string(policy);
    EXPECT_EQ(r.stats.jobs_cancelled, 1) << to_string(policy);
    EXPECT_EQ(r.stats.online_cost, r.schedule.cost(trace.residual()))
        << to_string(policy);
  }
}

// ----------------------------------------------------------- API + formats

TEST(CancelApi, RunSolverReplaysOnlineAndSolvesResidualOffline) {
  const EventTrace trace = cancellable_trace(9, 300, 4, 0.3);
  const Instance residual = trace.residual();

  const SolveResult online = run_solver(trace, SolverSpec::parse("online_first_fit"));
  EXPECT_TRUE(online.valid);
  EXPECT_EQ(online.cost, online.stats.online_cost);  // refunds are exact
  EXPECT_EQ(online.stats.jobs_cancelled + online.stats.jobs_preempted,
            static_cast<std::int64_t>(trace.cancels().size()));

  const SolveResult offline = run_solver(trace, SolverSpec::parse("auto"));
  EXPECT_TRUE(offline.valid);
  EXPECT_EQ(offline.cost, solve_minbusy_auto(residual).schedule.cost(residual));
  // The offline dispatcher sees the whole residual workload in advance.
  EXPECT_LE(offline.cost, online.cost);
}

TEST(CancelFormats, EventTraceTextRoundTrip) {
  const EventTrace trace = cancellable_trace(21, 60, 3, 0.4);
  ASSERT_TRUE(trace.has_cancels());
  std::stringstream buffer;
  write_event_trace(buffer, trace);
  const EventTrace reloaded = read_event_trace(buffer);
  EXPECT_EQ(reloaded.base().jobs(), trace.base().jobs());
  EXPECT_EQ(reloaded.base().g(), trace.g());
  EXPECT_EQ(reloaded.cancels(), trace.cancels());
  EXPECT_EQ(reloaded.dropped_cancels(), 0u);  // canonical dumps reload cleanly
}

TEST(CancelFormats, PlainInstanceReaderRejectsRetractionRecords) {
  std::stringstream buffer("busytime-instance v1\ng 2\njob 0 10\ncancel 0 5\n");
  EXPECT_THROW(read_instance(buffer), ParseError);
  buffer.clear();
  buffer.seekg(0);
  const EventTrace trace = read_event_trace(buffer);
  EXPECT_EQ(trace.cancels().size(), 1u);
}

TEST(CancelFormats, EventTraceReaderValidatesRecords) {
  std::stringstream bad_id("busytime-instance v1\ng 2\njob 0 10\ncancel 3 5\n");
  EXPECT_THROW(read_event_trace(bad_id), ParseError);
  std::stringstream bad_arity("busytime-instance v1\ng 2\njob 0 10\ncancel 0\n");
  EXPECT_THROW(read_event_trace(bad_arity), ParseError);
  // Records may precede the jobs they name (interleaving is legal).
  std::stringstream forward("busytime-instance v1\ng 2\npreempt 0 5\njob 0 10\n");
  const EventTrace trace = read_event_trace(forward);
  ASSERT_EQ(trace.cancels().size(), 1u);
  EXPECT_TRUE(trace.cancels()[0].preempt);
}

TEST(CancelFormats, ResultJsonRoundTripsTheRetractionCounters) {
  const EventTrace trace = cancellable_trace(33, 200, 4, 0.5);
  SolveResult result = run_solver(trace, SolverSpec::parse("online_best_fit"));
  result.wall_ms = 0;
  ASSERT_GT(result.stats.jobs_cancelled, 0);
  const SolveResult reloaded = result_from_json(result_to_json(result));
  EXPECT_EQ(reloaded.stats, result.stats);
  EXPECT_EQ(result_to_json(reloaded), result_to_json(result));
}

}  // namespace
}  // namespace busytime
