// Cancellation & preemption in the online engine: busy-time refunds, slot
// recycling, residual-instance equivalence, and the sharded-replay
// determinism contract with retraction events in the stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ctime>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/dispatch.hpp"
#include "api/registry.hpp"
#include "core/validate.hpp"
#include "io/serialize.hpp"
#include "online/epoch_hybrid.hpp"
#include "online/stream_driver.hpp"
#include "service/service.hpp"
#include "support/hybrid_reference.hpp"
#include "support/online_oracle.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "util/prng.hpp"
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

// EngineStats in EngineStats::fields order, as the pins below record them.
std::vector<std::int64_t> stats_fields(const EngineStats& s) {
  std::vector<std::int64_t> out;
  EngineStats::fields([&](const char*, auto member) {
    out.push_back(static_cast<std::int64_t>(s.*member));
  });
  return out;
}

// FNV-1a of an assignment, each machine id as four little-endian bytes.
std::uint64_t assignment_hash(const Schedule& schedule) {
  std::string bytes;
  for (const MachineId m : schedule.assignment())
    for (int b = 0; b < 4; ++b)
      bytes.push_back(static_cast<char>((static_cast<std::uint32_t>(m) >> (8 * b)) & 0xff));
  return util::fnv1a_64(bytes);
}

// ------------------------------------------------------------ machine pool

TEST(MachinePoolCancel, TruncatingTheSoleJobRefundsTheUncoveredTail) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 100});
  EXPECT_EQ(pool.stats().online_cost, 100);
  pool.advance(40);
  EXPECT_EQ(pool.truncate(m.id, 100, /*preempt=*/false), 60);
  EXPECT_EQ(pool.stats().online_cost, 40);
  EXPECT_EQ(pool.stats().busy_time_refunded, 60);
  EXPECT_EQ(pool.stats().jobs_cancelled, 1);
  EXPECT_EQ(pool.stats().active_jobs, 0);
}

TEST(MachinePoolCancel, CoveredTailRefundsNothing) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 100});
  pool.place(m, {0, 100});
  pool.advance(40);
  // The twin job still covers [40, 100): nothing to refund.
  EXPECT_EQ(pool.truncate(m.id, 100, /*preempt=*/true), 0);
  EXPECT_EQ(pool.stats().online_cost, 100);
  EXPECT_EQ(pool.stats().jobs_preempted, 1);
}

TEST(MachinePoolCancel, PartialCoverRefundsTheDifference) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 100});
  pool.place(m, {0, 60});
  pool.advance(40);
  // [40, 60) stays covered by the second job; only [60, 100) is refunded.
  EXPECT_EQ(pool.truncate(m.id, 100, /*preempt=*/false), 40);
  EXPECT_EQ(pool.stats().online_cost, 60);
  // Placing after the truncation extends from the new frontier.
  EXPECT_EQ(pool.extension(m, {40, 90}), 30);
}

TEST(MachinePoolCancel, TruncationFreesACapacitySlot) {
  MachinePool pool(1);
  pool.advance(0);
  const OpenMachine m = pool.open_machine();
  pool.place(m, {0, 100});
  EXPECT_FALSE(pool.fits(m));
  pool.advance(50);
  pool.truncate(m.id, 100, /*preempt=*/false);
  EXPECT_TRUE(pool.fits(m));
}

// ------------------------------------------------------------ slot recycling

TEST(MachinePoolRecycling, ClosedSlotsAreReusedAndIdsStayStable) {
  MachinePool pool(2);
  pool.advance(0);
  const OpenMachine m0 = pool.open_machine();
  EXPECT_EQ(m0.id, 0);
  pool.place(m0, {0, 10});
  pool.advance(10);  // retires the job; machine 0 closes
  EXPECT_TRUE(pool.open_machines().empty());

  const OpenMachine m1 = pool.open_machine();
  EXPECT_EQ(m1.id, 1);  // external ids never reused
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
    EXPECT_EQ(stats_fields(r.stats), pin.stats) << context;
    EXPECT_EQ(assignment_hash(r.schedule), pin.assignment_hash) << context;
  }
}

// Replays `trace` through the hybrid and through the batch-instance
// reference (support/hybrid_reference), and holds every assignment and
// every EngineStats field to the reference's.  Returns the hybrid's replay.
ReplayResult expect_hybrid_matches_reference(const EventTrace& trace,
                                             const PolicyParams& params,
                                             const std::string& context) {
  ReplayResult r = replay_stream(trace, OnlinePolicy::kEpochHybrid, params);
  const OracleReplay ref = replay_hybrid_reference(trace, params);
  EXPECT_EQ(r.schedule.assignment(), ref.schedule.assignment()) << context;
  EXPECT_EQ(stats_fields(r.stats), stats_fields(ref.stats)) << context;
  return r;
}

// The hybrid's flush against the batch-instance reference.
// At 4 arrivals per time unit most batches hold runs of equal starts that
// pending truncations reorder.  At epoch 4 an untruncated batch is a clique
// (every job lasts at least 5), so g = 2 and g = 3 take the matching and
// set-cover routes; max_batch = 7 cuts batches inside an epoch.
TEST(CancelReplay, EpochHybridMatchesTheBatchInstanceReference) {
  for (const std::uint64_t seed : {3u, 11u}) {
    for (const double arrival_rate : {0.5, 4.0}) {
      for (const int g : {1, 2, 3, 8, 255}) {
        TraceParams tp;
        tp.n = 1500;
        tp.g = g;
        tp.arrival_rate = arrival_rate;
        tp.seed = seed;
        CancelParams cp;
        cp.cancel_rate = 0.3;
        cp.seed = seed + 1;
        const EventTrace trace = gen_cancellable(tp, cp);
        for (const Time epoch : {4, 16, 1024}) {
          for (const int max_batch : {7, 4096}) {
            const std::string context =
                "seed=" + std::to_string(seed) + " arrivals=" + std::to_string(arrival_rate) +
                " g=" + std::to_string(g) + " epoch=" + std::to_string(epoch) +
                " max_batch=" + std::to_string(max_batch);
            PolicyParams params;
            params.epoch_length = epoch;
            params.max_batch = max_batch;
            expect_hybrid_matches_reference(trace, params, context);
          }
        }
      }
    }
  }
}

// One batch holds a run of 40 equal starts, more than the 16 an insertion
// sort takes, so the run is ordered by the comparison sort.  Arrivals come
// in (start, completion, id) order; pending truncations then give the run
// completions out of arrival order, tied with each other and with
// untruncated ones.  At epoch 16 that batch is a clique (every job runs
// over [10, 11)), so g = 1, 2 and 3 route it to the set-cover and
// matching solvers, which read the run's order; at epoch 1024 one batch
// holds every job and FirstFit takes the large component.
TEST(CancelReplay, EpochHybridOrdersALongRunOfEqualStartsLikeTheReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    std::vector<Job> jobs = {Job(8, 40), Job(9, 33)};
    for (int k = 0; k < 40; ++k) jobs.emplace_back(10, rng.uniform_int(30, 38));
    jobs.emplace_back(29, 60);
    jobs.emplace_back(70, 80);
    std::vector<CancelRecord> cancels = {{0, 23, false}};
    for (int k = 0; k < 40; ++k)
      if (rng.bernoulli(0.4))
        cancels.push_back({static_cast<JobId>(2 + k), rng.uniform_int(11, 28), rng.bernoulli(0.5)});
    for (const int g : {1, 2, 3, 8}) {
      const EventTrace trace(Instance(jobs, g), cancels);
      ASSERT_EQ(trace.cancels().size(), cancels.size());
      for (const Time epoch : {16, 1024}) {
        const std::string context = "seed=" + std::to_string(seed) + " g=" + std::to_string(g) +
                                    " epoch=" + std::to_string(epoch);
        PolicyParams params;
        params.epoch_length = epoch;
        const ReplayResult r = expect_hybrid_matches_reference(trace, params, context);
        EXPECT_EQ(r.stats.jobs_cancelled + r.stats.jobs_preempted,
                  static_cast<std::int64_t>(cancels.size()))
            << context;
      }
    }
  }
}

// The greedy policies' replays of the same 5,000-job traces, pinned the
// same way, with and without retractions.  g = 64 and 255 exceed the
// traces' peak load, so there the two policies coincide.
TEST(CancelReplay, GreedyPoliciesMatchPinnedResults) {
  constexpr OnlinePolicy kFF = OnlinePolicy::kFirstFit;
  constexpr OnlinePolicy kBF = OnlinePolicy::kBestFit;
  struct Pin {
    OnlinePolicy policy;
    std::uint64_t seed;
    double cancel_rate;
    int g;
    std::vector<std::int64_t> stats;
    std::uint64_t assignment_hash;
  };
  const Pin pins[] = {
    {kFF, 1, 0.0, 1, {5000, 5000, 4990, 10, 19, 10, 19, 0, 0, 0, 4981, 0, 9794, 77849}, 0xe689f457c96dee4full},
    {kFF, 1, 0.0, 4, {5000, 326, 323, 3, 5, 10, 19, 0, 0, 0, 321, 0, 9794, 27670}, 0xb5ef519fac5e7422ull},
    {kFF, 1, 0.0, 8, {5000, 145, 143, 2, 3, 10, 19, 0, 0, 0, 142, 0, 9794, 17007}, 0x9d832dad0a30b2c4ull},
    {kFF, 1, 0.0, 64, {5000, 4, 3, 1, 1, 10, 19, 0, 0, 0, 3, 0, 9794, 10118}, 0x7fb8eeefcb82d293ull},
    {kFF, 1, 0.0, 255, {5000, 4, 3, 1, 1, 10, 19, 0, 0, 0, 3, 0, 9794, 10118}, 0x7fb8eeefcb82d293ull},
    {kFF, 1, 0.2, 1, {5000, 5000, 4990, 10, 19, 10, 19, 766, 244, 0, 4981, 7375, 9794, 70474}, 0xe689f457c96dee4full},
    {kFF, 1, 0.2, 4, {5000, 349, 346, 3, 5, 10, 19, 766, 244, 0, 344, 2221, 9794, 25770}, 0x209d1510ba3b418full},
    {kFF, 1, 0.2, 8, {5000, 170, 168, 2, 3, 10, 19, 766, 244, 0, 167, 1198, 9794, 15917}, 0xfbb8a342e7efcc66ull},
    {kFF, 1, 0.2, 64, {5000, 9, 8, 1, 1, 10, 19, 766, 244, 0, 8, 743, 9794, 10112}, 0xb6da10573d43d165ull},
    {kFF, 1, 0.2, 255, {5000, 9, 8, 1, 1, 10, 19, 766, 244, 0, 8, 743, 9794, 10112}, 0xb6da10573d43d165ull},
    {kFF, 7, 0.0, 1, {5000, 5000, 4992, 8, 20, 8, 20, 0, 0, 0, 4980, 0, 10070, 81499}, 0x4bc6622753160bb3ull},
    {kFF, 7, 0.0, 4, {5000, 298, 295, 3, 5, 8, 20, 0, 0, 0, 293, 0, 10070, 28705}, 0x8a9b89cae3080f71ull},
    {kFF, 7, 0.0, 8, {5000, 136, 134, 2, 3, 8, 20, 0, 0, 0, 133, 0, 10070, 17692}, 0x927910ba40666e0eull},
    {kFF, 7, 0.0, 64, {5000, 4, 3, 1, 1, 8, 20, 0, 0, 0, 3, 0, 10070, 10120}, 0xc9e82c1194c1e103ull},
    {kFF, 7, 0.0, 255, {5000, 4, 3, 1, 1, 8, 20, 0, 0, 0, 3, 0, 10070, 10120}, 0xc9e82c1194c1e103ull},
    {kFF, 7, 0.2, 1, {5000, 5000, 4999, 1, 18, 0, 18, 700, 250, 0, 4982, 8205, 10105, 73294}, 0x4bc6622753160bb3ull},
    {kFF, 7, 0.2, 4, {5000, 325, 324, 1, 5, 0, 18, 700, 250, 0, 320, 2633, 10105, 26415}, 0xae2c585a0e4a9990ull},
    {kFF, 7, 0.2, 8, {5000, 160, 159, 1, 3, 0, 18, 700, 250, 0, 157, 1286, 10105, 16549}, 0xd0163f13b8ecfddcull},
    {kFF, 7, 0.2, 64, {5000, 6, 5, 1, 1, 0, 18, 700, 250, 0, 5, 597, 10105, 10098}, 0x0a4c6eebe4d686d1ull},
    {kFF, 7, 0.2, 255, {5000, 6, 5, 1, 1, 0, 18, 700, 250, 0, 5, 597, 10105, 10098}, 0x0a4c6eebe4d686d1ull},
    {kFF, 42, 0.0, 1, {5000, 5000, 4990, 10, 21, 10, 21, 0, 0, 0, 4979, 0, 9809, 77634}, 0x3d6688e912e937e3ull},
    {kFF, 42, 0.0, 4, {5000, 316, 313, 3, 6, 10, 21, 0, 0, 0, 310, 0, 9809, 27936}, 0x823a9a3b3d7b44dcull},
    {kFF, 42, 0.0, 8, {5000, 141, 139, 2, 3, 10, 21, 0, 0, 0, 138, 0, 9809, 17368}, 0xc461d45eb5b012a3ull},
    {kFF, 42, 0.0, 64, {5000, 6, 5, 1, 1, 10, 21, 0, 0, 0, 5, 0, 9809, 9936}, 0x4b1dee5d17a21455ull},
    {kFF, 42, 0.0, 255, {5000, 6, 5, 1, 1, 10, 21, 0, 0, 0, 5, 0, 9809, 9936}, 0x4b1dee5d17a21455ull},
    {kFF, 42, 0.2, 1, {5000, 5000, 4992, 8, 17, 8, 17, 757, 262, 0, 4983, 8261, 9809, 69373}, 0x3d6688e912e937e3ull},
    {kFF, 42, 0.2, 4, {5000, 328, 325, 3, 5, 8, 17, 757, 262, 0, 323, 2624, 9809, 25435}, 0x02be6adadabc308full},
    {kFF, 42, 0.2, 8, {5000, 147, 145, 2, 3, 8, 17, 757, 262, 0, 144, 1933, 9809, 15914}, 0xe1223814df529f7dull},
    {kFF, 42, 0.2, 64, {5000, 8, 7, 1, 1, 8, 17, 757, 262, 0, 7, 1068, 9809, 9931}, 0xf6a1b0ca12747163ull},
    {kFF, 42, 0.2, 255, {5000, 8, 7, 1, 1, 8, 17, 757, 262, 0, 7, 1068, 9809, 9931}, 0xf6a1b0ca12747163ull},
    {kBF, 1, 0.0, 1, {5000, 5000, 4990, 10, 19, 10, 19, 0, 0, 0, 4981, 0, 9794, 77849}, 0xe689f457c96dee4full},
    {kBF, 1, 0.0, 4, {5000, 421, 417, 4, 5, 10, 19, 0, 0, 0, 416, 0, 9794, 26697}, 0xde9d3c1d696d9110ull},
    {kBF, 1, 0.0, 8, {5000, 170, 168, 2, 3, 10, 19, 0, 0, 0, 167, 0, 9794, 16661}, 0xf93aafc11624bf4aull},
    {kBF, 1, 0.0, 64, {5000, 4, 3, 1, 1, 10, 19, 0, 0, 0, 3, 0, 9794, 10118}, 0x7fb8eeefcb82d293ull},
    {kBF, 1, 0.0, 255, {5000, 4, 3, 1, 1, 10, 19, 0, 0, 0, 3, 0, 9794, 10118}, 0x7fb8eeefcb82d293ull},
    {kBF, 1, 0.2, 1, {5000, 5000, 4990, 10, 19, 10, 19, 766, 244, 0, 4981, 7375, 9794, 70474}, 0xe689f457c96dee4full},
    {kBF, 1, 0.2, 4, {5000, 446, 443, 3, 5, 10, 19, 766, 244, 0, 441, 1717, 9794, 24643}, 0xcdc40ad66c7610beull},
    {kBF, 1, 0.2, 8, {5000, 188, 186, 2, 3, 10, 19, 766, 244, 0, 185, 1056, 9794, 15671}, 0x71c2e2662999ae8eull},
    {kBF, 1, 0.2, 64, {5000, 9, 8, 1, 1, 10, 19, 766, 244, 0, 8, 743, 9794, 10112}, 0xb6da10573d43d165ull},
    {kBF, 1, 0.2, 255, {5000, 9, 8, 1, 1, 10, 19, 766, 244, 0, 8, 743, 9794, 10112}, 0xb6da10573d43d165ull},
    {kBF, 7, 0.0, 1, {5000, 5000, 4992, 8, 20, 8, 20, 0, 0, 0, 4980, 0, 10070, 81499}, 0x4bc6622753160bb3ull},
    {kBF, 7, 0.0, 4, {5000, 369, 366, 3, 5, 8, 20, 0, 0, 0, 364, 0, 10070, 27700}, 0xc1da62591708779aull},
    {kBF, 7, 0.0, 8, {5000, 172, 170, 2, 3, 8, 20, 0, 0, 0, 169, 0, 10070, 17354}, 0xd1642a38eeef3640ull},
    {kBF, 7, 0.0, 64, {5000, 4, 3, 1, 1, 8, 20, 0, 0, 0, 3, 0, 10070, 10120}, 0xc9e82c1194c1e103ull},
    {kBF, 7, 0.0, 255, {5000, 4, 3, 1, 1, 8, 20, 0, 0, 0, 3, 0, 10070, 10120}, 0xc9e82c1194c1e103ull},
    {kBF, 7, 0.2, 1, {5000, 5000, 4999, 1, 18, 0, 18, 700, 250, 0, 4982, 8205, 10105, 73294}, 0x4bc6622753160bb3ull},
    {kBF, 7, 0.2, 4, {5000, 407, 406, 1, 5, 0, 18, 700, 250, 0, 402, 2412, 10105, 25391}, 0x171c20c39d297061ull},
    {kBF, 7, 0.2, 8, {5000, 186, 185, 1, 3, 0, 18, 700, 250, 0, 183, 1305, 10105, 15883}, 0x0e136c8d9abcd537ull},
    {kBF, 7, 0.2, 64, {5000, 6, 5, 1, 1, 0, 18, 700, 250, 0, 5, 597, 10105, 10098}, 0x0a4c6eebe4d686d1ull},
    {kBF, 7, 0.2, 255, {5000, 6, 5, 1, 1, 0, 18, 700, 250, 0, 5, 597, 10105, 10098}, 0x0a4c6eebe4d686d1ull},
    {kBF, 42, 0.0, 1, {5000, 5000, 4990, 10, 21, 10, 21, 0, 0, 0, 4979, 0, 9809, 77634}, 0x3d6688e912e937e3ull},
    {kBF, 42, 0.0, 4, {5000, 402, 399, 3, 6, 10, 21, 0, 0, 0, 396, 0, 9809, 26601}, 0x022a37e73b9bf640ull},
    {kBF, 42, 0.0, 8, {5000, 179, 177, 2, 3, 10, 21, 0, 0, 0, 176, 0, 9809, 16622}, 0xa836902de5553445ull},
    {kBF, 42, 0.0, 64, {5000, 6, 5, 1, 1, 10, 21, 0, 0, 0, 5, 0, 9809, 9936}, 0x4b1dee5d17a21455ull},
    {kBF, 42, 0.0, 255, {5000, 6, 5, 1, 1, 10, 21, 0, 0, 0, 5, 0, 9809, 9936}, 0x4b1dee5d17a21455ull},
    {kBF, 42, 0.2, 1, {5000, 5000, 4992, 8, 17, 8, 17, 757, 262, 0, 4983, 8261, 9809, 69373}, 0x3d6688e912e937e3ull},
    {kBF, 42, 0.2, 4, {5000, 400, 398, 2, 5, 8, 17, 757, 262, 0, 395, 2285, 9809, 24437}, 0x8a5306d75bb900cbull},
    {kBF, 42, 0.2, 8, {5000, 184, 183, 1, 3, 8, 17, 757, 262, 0, 181, 1595, 9809, 15075}, 0x0647cd96b0c64d05ull},
    {kBF, 42, 0.2, 64, {5000, 8, 7, 1, 1, 8, 17, 757, 262, 0, 7, 1068, 9809, 9931}, 0xf6a1b0ca12747163ull},
    {kBF, 42, 0.2, 255, {5000, 8, 7, 1, 1, 8, 17, 757, 262, 0, 7, 1068, 9809, 9931}, 0xf6a1b0ca12747163ull},
  };
  for (const Pin& pin : pins) {
    const std::string context = to_string(pin.policy) +
                                " seed=" + std::to_string(pin.seed) +
                                " rate=" + std::to_string(pin.cancel_rate) +
                                " g=" + std::to_string(pin.g);
    const ReplayResult r = replay_stream(
        cancellable_trace(pin.seed, 5000, pin.g, pin.cancel_rate), pin.policy, {});
    EXPECT_EQ(stats_fields(r.stats), pin.stats) << context;
    EXPECT_EQ(assignment_hash(r.schedule), pin.assignment_hash) << context;
  }
}

// ------------------------------------------------ from-scratch oracle

// The greedy replays against an oracle that recomputes every machine's
// running count and busy time from its full job list at every event.  The
// dense traces (8 arrivals per time unit, up to ~140 jobs running) fill
// machines at g = 64 and keep one long run of completions at g = 255, so
// retirements and truncations walk long runs.
TEST(CancelReplay, GreedyPoliciesMatchTheFromScratchOracle) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    for (const double arrival_rate : {0.5, 8.0}) {
      for (const double cancel_rate : {0.0, 0.2}) {
        for (const int g : {1, 4, 8, 64, 255}) {
          TraceParams tp;
          tp.n = 1500;
          tp.g = g;
          tp.arrival_rate = arrival_rate;
          tp.seed = seed;
          CancelParams cp;
          cp.cancel_rate = cancel_rate;
          cp.seed = seed + 1;
          const EventTrace trace = gen_cancellable(tp, cp);
          for (const OnlinePolicy policy : {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit}) {
            const std::string context =
                to_string(policy) + " seed=" + std::to_string(seed) +
                " arrivals=" + std::to_string(arrival_rate) +
                " cancels=" + std::to_string(cancel_rate) + " g=" + std::to_string(g);
            const ReplayResult r = replay_stream(trace, policy, {});
            const OracleReplay oracle = replay_greedy_oracle(trace, policy);
            EXPECT_EQ(r.schedule.assignment(), oracle.schedule.assignment()) << context;
            EXPECT_EQ(stats_fields(r.stats), stats_fields(oracle.stats)) << context;
          }
        }
      }
    }
  }
}

// Two running jobs complete at 100 on one machine.  Truncating one leaves
// the other covering the tail (no refund); truncating the second then
// refunds [60, 100), and the machine closes before the last arrival.
TEST(CancelReplay, TruncatingOneOfTwoEqualCompletionsMatchesTheOracle) {
  const Instance base({Job(0, 100), Job(10, 100), Job(20, 40), Job(120, 130)}, 3);
  const EventTrace trace(base, {{1, 30, false}, {0, 60, true}});
  for (const OnlinePolicy policy : {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit}) {
    const ReplayResult r = replay_stream(trace, policy, {});
    const OracleReplay oracle = replay_greedy_oracle(trace, policy);
    EXPECT_EQ(r.schedule.assignment(), oracle.schedule.assignment()) << to_string(policy);
    EXPECT_EQ(stats_fields(r.stats), stats_fields(oracle.stats)) << to_string(policy);
    EXPECT_EQ(r.stats.busy_time_refunded, 40) << to_string(policy);
    EXPECT_EQ(r.stats.online_cost, 60 + 10) << to_string(policy);
    EXPECT_EQ(r.schedule.machine_of(3), 1) << to_string(policy);
    EXPECT_EQ(r.stats.slots_recycled, 1) << to_string(policy);
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

// ------------------------------------------------------ request controls

struct PolicySolver {
  const char* solver;
  OnlinePolicy policy;
};
constexpr PolicySolver kPolicySolvers[] = {{"online_first_fit", OnlinePolicy::kFirstFit},
                                           {"online_best_fit", OnlinePolicy::kBestFit},
                                           {"epoch_hybrid", OnlinePolicy::kEpochHybrid}};

// The cancellable 150k input of the baseline measurements (`busytime_cli gen
// --family=trace --n=150000 --g=8 --seed=1 --cancel_rate=0.2`), with its
// residual and start order memoized so a request's time is its replay.
const EventTrace& baseline_trace() {
  static const EventTrace trace = [] {
    TraceParams tp;
    tp.n = 150000;
    tp.g = 8;
    tp.seed = 1;
    CancelParams cp;
    cp.cancel_rate = 0.2;
    cp.seed = 1;
    return with_random_cancels(gen_trace(tp), cp);
  }();
  trace.residual();
  trace.base().ids_by_start();
  return trace;
}

// The replay checks the request's deadline at each shard start and every
// kCheckpointEvents events, so a request stops within one checkpoint of its
// deadline instead of running to the end.  The deadline is 5 ms, or half of
// the uncontrolled request on a host fast enough to finish sooner.  The
// bound is on the CPU time the request used, which a loaded host cannot
// stretch by descheduling the thread: up to the deadline it is at most the
// deadline's wall time, and after it at most one checkpoint interval.
TEST(CancelReplayControls, DeadlineStopsTheReplayWithinOneCheckpoint) {
  const EventTrace& trace = baseline_trace();
  Service service(ServiceConfig{1});
  for (const PolicySolver& entry : kPolicySolvers) {
    const char* const solver = entry.solver;
    const double full_ms = service.solve(trace, SolverSpec::parse(solver)).wall_ms;
    SolverSpec spec = SolverSpec::parse(solver);
    spec.options.deadline_ms = std::min(5.0, full_ms / 2);
    const std::clock_t c0 = std::clock();
    const SolveResult r = service.solve(trace, spec);
    [[maybe_unused]] const double cpu_ms =
        1000.0 * static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
    EXPECT_EQ(r.status, SolveStatus::kDeadline) << solver << " full=" << full_ms;
    EXPECT_EQ(r.schedule.throughput(), 0) << solver;
#if !BUSYTIME_AUDIT
    // Audit and sanitizer builds run the replay several times slower.
    EXPECT_LE(cpu_ms, 2 * spec.options.deadline_ms)
        << solver << " full=" << full_ms << " wall=" << r.wall_ms;
#endif
  }
}

// A token triggered from another thread while the replay runs stops it at
// the next checkpoint, at one thread and across shards, with and without
// retraction records.  The trigger fires once the request's replay has
// started (its online.replays count).  On a host too loaded to trigger
// before the replay ends, the result must be the uncontrolled one, so a
// few attempts are allowed.
TEST(CancelReplayControls, CancelTokenFromAnotherThreadStopsTheReplay) {
  const EventTrace arrivals_only(baseline_trace().base());
  for (const EventTrace* trace : {&baseline_trace(), &arrivals_only}) {
    for (const auto& [solver, policy] : kPolicySolvers) {
      for (const int threads : {1, 4}) {
        SolverSpec spec = SolverSpec::parse(solver);
        spec.options.threads = threads;
        const std::string context = std::string(solver) + " threads=" +
                                    std::to_string(threads) + " cancels=" +
                                    std::to_string(trace->cancels().size());
        const ReplayResult uncontrolled =
            replay_stream(*trace, policy, PolicyParams{}, threads);
        bool cancelled = false;
        for (int attempt = 0; attempt < 5 && !cancelled; ++attempt) {
          Service service(ServiceConfig{1});
          spec.cancel = CancelToken::make();
          std::atomic<bool> finished{false};
          std::thread trigger([&service, &finished, token = spec.cancel] {
            while (!finished && service.metrics().snapshot().counter_value(
                                    obs::metric::kOnlineReplays) == 0)
              std::this_thread::yield();
            token.request_cancel();
          });
          const SolveResult r = service.solve(*trace, spec);
          finished = true;
          trigger.join();
          if (r.status == SolveStatus::kCancelled) {
            cancelled = true;
            EXPECT_EQ(r.schedule.throughput(), 0) << context;
          } else {
            ASSERT_EQ(r.status, SolveStatus::kOk) << context;
            EXPECT_EQ(r.schedule.assignment(), uncontrolled.schedule.assignment())
                << context;
          }
        }
        EXPECT_TRUE(cancelled) << context;
      }
    }
  }
}

// Checkpoints change nothing when no control trips: a request with a far
// deadline and a live token returns the uncontrolled replay bit for bit.
TEST(CancelReplayControls, UntrippedControlsKeepResultsBitIdentical) {
  const EventTrace& trace = baseline_trace();
  Service service(ServiceConfig{1});
  for (const auto& [solver, policy] : kPolicySolvers) {
    for (const int threads : {1, 4}) {
      const std::string context = std::string(solver) + " threads=" + std::to_string(threads);
      const ReplayResult plain = replay_stream(trace, policy, PolicyParams{}, threads);
      SolverSpec spec = SolverSpec::parse(solver);
      spec.options.threads = threads;
      spec.options.deadline_ms = 600000;
      spec.cancel = CancelToken::make();
      const SolveResult r = service.solve(trace, spec);
      ASSERT_EQ(r.status, SolveStatus::kOk) << context;
      EXPECT_EQ(r.schedule.assignment(), plain.schedule.assignment()) << context;
      EXPECT_EQ(r.stats, plain.stats) << context;
    }
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
