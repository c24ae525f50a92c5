// Cancellation & preemption in the online engine: busy-time refunds, slot
// recycling, residual-instance equivalence, and the sharded-replay
// determinism contract with retraction events in the stream.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/dispatch.hpp"
#include "api/registry.hpp"
#include "core/validate.hpp"
#include "io/serialize.hpp"
#include "online/epoch_hybrid.hpp"
#include "online/stream_driver.hpp"
#include "util/fnv.hpp"
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

// Retractions of pending jobs find them by start: a run of equal starts
// holds several candidates, and each cancel must truncate its own job.
// At g = 1 every job gets its own machine, so the cost is the residual's
// total length, and truncating a wrong job of the run would change it.
TEST(EpochHybridCancel, PendingRunOfEqualStartsTruncatesTheNamedJob) {
  PolicyParams params;
  params.epoch_length = 1 << 20;
  EpochHybrid hybrid(1, params);
  std::vector<Job> arrived = {Job(0, 50)};
  for (Time k = 0; k < 5; ++k) arrived.push_back(Job(10, 40 + k));  // ids 1..5
  arrived.push_back(Job(20, 60));
  for (std::size_t j = 0; j < arrived.size(); ++j)
    hybrid.on_arrival(static_cast<JobId>(j), arrived[j]);
  // The first, a middle and the last job of the run starting at 10.
  hybrid.on_cancel(1, arrived[1], 25, false);
  hybrid.on_cancel(3, arrived[3], 26, true);
  hybrid.on_cancel(5, arrived[5], 27, false);
  hybrid.flush();
  EXPECT_EQ(hybrid.stats().jobs_cancelled, 2);
  EXPECT_EQ(hybrid.stats().jobs_preempted, 1);
  EXPECT_EQ(hybrid.stats().cancels_ignored, 0);
  EXPECT_EQ(hybrid.stats().busy_time_refunded, 0);  // none was placed yet
  std::vector<Job> residual_jobs = arrived;
  residual_jobs[1].interval.completion = 25;
  residual_jobs[3].interval.completion = 26;
  residual_jobs[5].interval.completion = 27;
  const Instance residual(std::move(residual_jobs), 1);
  EXPECT_EQ(hybrid.stats().online_cost, residual.total_length());
  EXPECT_EQ(hybrid.schedule().cost(residual), residual.total_length());
  EXPECT_TRUE(is_valid(residual, hybrid.schedule()));
}

TEST(EpochHybridCancel, FlushedJobsTakeThePoolPathAndRefundTheirTail) {
  PolicyParams params;
  params.epoch_length = 10;
  EpochHybrid hybrid(2, params);
  hybrid.on_arrival(0, Job(0, 100));
  hybrid.on_arrival(1, Job(50, 70));  // 50 past the epoch start: flushes job 0
  EXPECT_TRUE(hybrid.schedule().is_scheduled(0));
  EXPECT_FALSE(hybrid.schedule().is_scheduled(1));
  hybrid.on_cancel(0, Job(0, 100), 60, false);
  EXPECT_EQ(hybrid.stats().jobs_cancelled, 1);
  EXPECT_EQ(hybrid.stats().busy_time_refunded, 40);  // [60, 100), uncovered
  hybrid.flush();
  const Instance residual({Job(0, 60), Job(50, 70)}, 2);
  EXPECT_EQ(hybrid.stats().online_cost, hybrid.schedule().cost(residual));
  EXPECT_TRUE(is_valid(residual, hybrid.schedule()));
}

TEST(EpochHybridCancel, IgnoresSecondAndNeverArrivedRetractions) {
  PolicyParams params;
  params.epoch_length = 1 << 20;
  EpochHybrid hybrid(2, params);
  hybrid.on_arrival(0, Job(0, 100));
  hybrid.on_arrival(1, Job(10, 50));
  hybrid.on_cancel(0, Job(0, 100), 30, false);
  hybrid.on_cancel(0, Job(0, 100), 40, false);  // second retraction
  EXPECT_EQ(hybrid.stats().jobs_cancelled, 1);
  EXPECT_EQ(hybrid.stats().cancels_ignored, 1);
  // Job 2 never arrived, though job 1 pends with the same start.
  hybrid.on_cancel(2, Job(10, 50), 45, false);
  EXPECT_EQ(hybrid.stats().cancels_ignored, 2);
  hybrid.flush();
  EXPECT_EQ(hybrid.stats().jobs_cancelled, 1);
  EXPECT_FALSE(hybrid.schedule().is_scheduled(2));
  const Instance residual({Job(0, 30), Job(10, 50), Job(10, 50)}, 2);
  EXPECT_EQ(hybrid.stats().online_cost, hybrid.schedule().cost(residual));
}

// The epoch hybrid's replay of 5,000-job cancellable traces, pinned: its
// EngineStats (in EngineStats::fields order) and an FNV-1a hash of its
// assignment, each machine id as four little-endian bytes.  Epochs of 16,
// 64 and 1024 flush batches of ~8, ~32 and ~500 jobs, so retractions hit
// placed and pending jobs alike.
TEST(CancelReplay, EpochHybridMatchesPinnedResults) {
  struct Pin {
    std::uint64_t seed;
    Time epoch;
    int g;
    std::vector<std::int64_t> stats;
    std::uint64_t assignment_hash;
  };
  const Pin pins[] = {
    {1, 16, 1, {5000, 3455, 3444, 11, 19, 10, 15, 766, 244, 0, 3436, 3085, 9794, 70474}, 0x219b64daba202a1bull},
    {1, 16, 4, {5000, 1161, 1155, 6, 9, 10, 15, 766, 244, 0, 1152, 1987, 9794, 39016}, 0x851b1b57973d0fc4ull},
    {1, 16, 8, {5000, 749, 744, 5, 9, 10, 15, 766, 244, 0, 740, 1942, 9794, 34190}, 0x54b98aaa029e39b8ull},
    {1, 64, 1, {5000, 1590, 1575, 15, 26, 10, 12, 766, 244, 0, 1564, 1664, 9794, 70474}, 0x39aef755075f3aa6ull},
    {1, 64, 4, {5000, 491, 485, 6, 9, 10, 12, 766, 244, 0, 482, 781, 9794, 30548}, 0x60dbda7e25c00624ull},
    {1, 64, 8, {5000, 313, 309, 4, 8, 10, 12, 766, 244, 0, 305, 752, 9794, 22861}, 0x91b8699f5acf5f24ull},
    {1, 1024, 1, {5000, 240, 222, 18, 48, 10, 10, 766, 244, 0, 192, 234, 9794, 70474}, 0xc9fd55639e2ed77eull},
    {1, 1024, 4, {5000, 68, 63, 5, 14, 10, 10, 766, 244, 0, 54, 2, 9794, 24410}, 0x16877444635cb02full},
    {1, 1024, 8, {5000, 39, 36, 3, 8, 10, 10, 766, 244, 0, 31, 0, 9794, 15038}, 0x4b7bf4fc43e1dcf9ull},
    {7, 16, 1, {5000, 3416, 3413, 3, 17, 0, 14, 700, 250, 0, 3399, 3564, 10105, 73294}, 0x8c33993d52d14149ull},
    {7, 16, 4, {5000, 1152, 1150, 2, 9, 0, 14, 700, 250, 0, 1143, 2592, 10105, 42385}, 0x65e89d0dba307ff9ull},
    {7, 16, 8, {5000, 745, 743, 2, 9, 0, 14, 700, 250, 0, 736, 2528, 10105, 37868}, 0x3d75205193c727e7ull},
    {7, 64, 1, {5000, 1574, 1567, 7, 22, 0, 13, 700, 250, 0, 1552, 2186, 10105, 73294}, 0x9420e7042f4f054cull},
    {7, 64, 4, {5000, 464, 462, 2, 7, 0, 13, 700, 250, 0, 457, 1216, 10105, 32868}, 0x7276e87d55aafc2dull},
    {7, 64, 8, {5000, 293, 292, 1, 6, 0, 13, 700, 250, 0, 287, 1121, 10105, 25305}, 0xc9f17f07c933e8b0ull},
    {7, 1024, 1, {5000, 212, 185, 27, 39, 0, 10, 700, 250, 0, 173, 55, 10105, 73294}, 0xd03cc0bd0d7990c1ull},
    {7, 1024, 4, {5000, 61, 53, 8, 12, 0, 10, 700, 250, 0, 49, 44, 10105, 24958}, 0xe28a4428993178adull},
    {7, 1024, 8, {5000, 35, 30, 5, 7, 0, 10, 700, 250, 0, 28, 3, 10105, 15162}, 0x29d4ced8b7ff364full},
    {42, 16, 1, {5000, 3449, 3437, 12, 17, 8, 15, 757, 262, 0, 3432, 3005, 9809, 69373}, 0x4fe9916845729ebeull},
    {42, 16, 4, {5000, 1156, 1150, 6, 9, 8, 15, 757, 262, 0, 1147, 2019, 9809, 38651}, 0x754f6a480d3caefcull},
    {42, 16, 8, {5000, 753, 747, 6, 8, 8, 15, 757, 262, 0, 745, 1984, 9809, 33889}, 0xa37d7bfb84f58b5cull},
    {42, 64, 1, {5000, 1559, 1548, 11, 20, 8, 14, 757, 262, 0, 1539, 1570, 9809, 69373}, 0x726522f0f70332ceull},
    {42, 64, 4, {5000, 468, 464, 4, 7, 8, 14, 757, 262, 0, 461, 1044, 9809, 30226}, 0x16c9c80a38647d5bull},
    {42, 64, 8, {5000, 295, 292, 3, 6, 8, 14, 757, 262, 0, 289, 998, 9809, 22656}, 0x7569d0f6e283f306ull},
    {42, 1024, 1, {5000, 231, 216, 15, 46, 8, 9, 757, 262, 0, 185, 85, 9809, 69373}, 0x0eb3a62a5e9290d6ull},
    {42, 1024, 4, {5000, 66, 62, 4, 13, 8, 9, 757, 262, 0, 53, 12, 9809, 23715}, 0xef6c2cbaf7c82443ull},
    {42, 1024, 8, {5000, 37, 35, 2, 8, 8, 9, 757, 262, 0, 29, 10, 9809, 14427}, 0x18c9a504013d0362ull},
  };
  for (const Pin& pin : pins) {
    const std::string context = "seed=" + std::to_string(pin.seed) +
                                " epoch=" + std::to_string(pin.epoch) +
                                " g=" + std::to_string(pin.g);
    PolicyParams params;
    params.epoch_length = pin.epoch;
    const ReplayResult r =
        replay_stream(cancellable_trace(pin.seed, 5000, pin.g, 0.2),
                      OnlinePolicy::kEpochHybrid, params);
    std::vector<std::int64_t> stats;
    EngineStats::fields([&](const char*, auto member) {
      stats.push_back(static_cast<std::int64_t>(r.stats.*member));
    });
    EXPECT_EQ(stats, pin.stats) << context;
    std::string bytes;
    for (const MachineId m : r.schedule.assignment())
      for (int b = 0; b < 4; ++b)
        bytes.push_back(static_cast<char>((static_cast<std::uint32_t>(m) >> (8 * b)) & 0xff));
    EXPECT_EQ(util::fnv1a_64(bytes), pin.assignment_hash) << context;
  }
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
