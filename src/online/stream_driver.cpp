#include "online/stream_driver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "api/request.hpp"
#include "exec/thread_pool.hpp"
#include "obs/hooks.hpp"
#include "online/epoch_hybrid.hpp"

namespace busytime {

namespace {

/// One shard: a contiguous range [begin, end) of the start-sorted order,
/// plus the contiguous range [cancel_begin, cancel_end) of the canonical
/// cancel list whose jobs fall in this shard.
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t cancel_begin = 0;
  std::size_t cancel_end = 0;
};

/// Cuts the start-sorted stream into shards.  A cut is legal only at a
/// component boundary (arrival start >= running frontier) whose idle gap is
/// at least `min_gap`: with min_gap = 0 that is any component boundary
/// (greedy policies), with min_gap = epoch_length it is exactly where the
/// sequential epoch-hybrid provably flushes its pending batch, so per-shard
/// replay reproduces the sequential run bit for bit.  The last shard always
/// keeps >= 2 arrivals so a later advance exists to close the previous
/// shard's post-flush batch machines the way the sequential stream would.
std::vector<ShardRange> plan_shards(const Instance& trace, int threads,
                                    std::size_t min_shard_jobs, Time min_gap) {
  const std::size_t n = trace.size();
  std::vector<ShardRange> shards;
  if (n == 0) return shards;
  if (threads <= 1 || n < 2 * std::max<std::size_t>(min_shard_jobs, 2)) {
    shards.push_back({0, n, 0, 0});
    return shards;
  }

  const auto& order = trace.ids_by_start();
  const std::size_t target = std::max(
      min_shard_jobs, n / (static_cast<std::size_t>(threads) * 4));

  std::size_t shard_begin = 0;
  Time frontier = trace.job(order.front()).completion();
  for (std::size_t k = 1; k + 2 <= n; ++k) {
    const auto& iv = trace.job(order[k]).interval;
    if (iv.start >= frontier && iv.start - frontier >= min_gap &&
        k - shard_begin >= target) {
      shards.push_back({shard_begin, k, 0, 0});
      shard_begin = k;
    }
    frontier = std::max(frontier, iv.completion);
  }
  shards.push_back({shard_begin, n, 0, 0});
  return shards;
}

/// Assigns each canonical cancel record to the shard holding its job's
/// arrival, by time alone.  An effective record's time lies strictly inside
/// its job's interval: strictly after its shard's first arrival, and
/// strictly before the next shard's first arrival (a cut lies at or past
/// every earlier completion).  So the canonical (time-sorted) cancel list
/// splits into contiguous per-shard runs at the shards' first starts, and
/// each shard's run replays in the exact position the sequential stream
/// processes it.
void bucket_cancels(const Instance& trace,
                    const std::vector<CancelRecord>& cancels,
                    std::vector<ShardRange>& shards) {
  const auto& order = trace.ids_by_start();
  std::size_t next = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shards[s].cancel_begin = next;
    if (s + 1 == shards.size()) {
      next = cancels.size();
    } else {
      const Time cut = trace.jobs()[static_cast<std::size_t>(
                                        order[shards[s + 1].begin])]
                           .start();
      next = static_cast<std::size_t>(
          std::partition_point(
              cancels.begin() + static_cast<std::ptrdiff_t>(next), cancels.end(),
              [cut](const CancelRecord& record) { return record.at < cut; }) -
          cancels.begin());
    }
    shards[s].cancel_end = next;
  }
}

/// One shard's replay output.
struct ShardRun {
  Schedule part;
  EngineStats stats;
};

/// Everything a shard's replay reads.  With one shard the scheduler sees
/// the trace's own job ids and its schedule is the result; with several,
/// each numbers its jobs by position within the shard (`pos_by_id` maps a
/// retracted job to its start-order position) and the merge renumbers.
struct ReplayPlan {
  const Instance& trace;
  const std::vector<CancelRecord>& cancels;
  const PolicyParams& params;
  const std::vector<ShardRange>& shards;
  std::vector<std::size_t> pos_by_id;  // sharded replays with cancels only
  const RequestContext* context;
  obs::MetricsRegistry* metrics;
  obs::TraceContext* spans;
  std::uint32_t replay_span;

  bool sharded() const noexcept { return shards.size() > 1; }
};

/// Replays shard `s` through a fresh `Policy`: the shard's arrivals merged
/// with its retractions in the canonical stream order, one direct call per
/// event.  The request's controls are checked before the shard's first
/// event and then every kCheckpointEvents events, so where a check falls
/// depends on the input alone.
template <class Policy>
ShardRun replay_shard(const ReplayPlan& plan, std::size_t s) {
  const auto s0 = std::chrono::steady_clock::now();
  const ShardRange& shard = plan.shards[s];
  const std::vector<JobId>& order = plan.trace.ids_by_start();
  const std::vector<Job>& jobs = plan.trace.jobs();
  const std::size_t arrivals = shard.end - shard.begin;
  const bool sharded = plan.sharded();

  Policy sched(plan.trace.g(), plan.params);
  sched.presize(sharded ? arrivals : jobs.size());

  std::size_t until_check = 0;
  const auto checkpoint = [&] {
    if (until_check-- != 0) return;
    until_check = kCheckpointEvents - 1;
    if (plan.context != nullptr) plan.context->check();
  };
  const auto retract = [&](const CancelRecord& record) {
    const auto job = static_cast<std::size_t>(record.job);
    const JobId id =
        sharded ? static_cast<JobId>(plan.pos_by_id[job] - shard.begin) : record.job;
    sched.on_cancel(id, jobs[job], record.at, record.preempt);
  };
  std::size_t c = shard.cancel_begin;
  for (std::size_t a = shard.begin; a < shard.end; ++a) {
    const JobId id = order[a];
    const Job& job = jobs[static_cast<std::size_t>(id)];
    for (; c < shard.cancel_end &&
           retraction_precedes_arrival(plan.cancels[c].at, job.start());
         ++c) {
      checkpoint();
      retract(plan.cancels[c]);
    }
    checkpoint();
    sched.on_arrival(sharded ? static_cast<JobId>(a - shard.begin) : id, job);
  }
  for (; c < shard.cancel_end; ++c) {
    checkpoint();
    retract(plan.cancels[c]);
  }

  if (s + 1 < plan.shards.size()) {
    // Finalize exactly as the sequential stream does around the next
    // shard's first arrival: advance (closing machines gone idle), flush
    // the pending epoch batch the way that arrival's handle() would, then
    // advance once more — the batch machines are placed entirely in the
    // past, so the following arrival closes them immediately.
    const Time next_start =
        jobs[static_cast<std::size_t>(order[plan.shards[s + 1].begin])].start();
    sched.advance_clock(next_start);
    sched.flush();
    sched.advance_clock(std::numeric_limits<Time>::max());
  } else {
    sched.flush();
  }
  ShardRun run{sched.take_schedule(), sched.stats()};

  const auto s1 = std::chrono::steady_clock::now();
  if (plan.metrics != nullptr) {
    plan.metrics->record<obs::metric::kOnlineShardJobs>(arrivals);
    plan.metrics->record<obs::metric::kOnlineShardReplayUs>(
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(s1 - s0)
                .count()));
  }
  if (plan.spans != nullptr)
    plan.spans->add("shard", plan.replay_span, s0, s1,
                    static_cast<std::int64_t>(arrivals));
  return run;
}

template <class Policy>
std::vector<ShardRun> replay_shards(const ReplayPlan& plan, int threads) {
  std::vector<ShardRun> runs(plan.shards.size());
  exec::parallel_for(threads, plan.shards.size(), [&](std::size_t s) {
    runs[s] = replay_shard<Policy>(plan, s);
  });
  return runs;
}

ReplayResult replay_events(const Instance& trace,
                           const std::vector<CancelRecord>& cancels,
                           OnlinePolicy policy, const PolicyParams& params,
                           int threads, std::size_t min_shard_jobs,
                           const RequestContext* context) {
  const int t = exec::resolve_threads(threads);
  const Time min_gap =
      policy == OnlinePolicy::kEpochHybrid ? params.epoch_length : 0;
  auto shards = plan_shards(trace, t, min_shard_jobs, min_gap);

  // Deterministic counts: the shard plan depends on the *requested* thread
  // count and the trace, never on execution interleaving, so shards_run is
  // exact and assertable for a pinned request.
  obs::MetricsRegistry* const metrics = obs::metrics_of(context);
  if (metrics != nullptr) {
    metrics->add<obs::metric::kOnlineReplays>();
    metrics->add<obs::metric::kOnlineJobsReplayed>(trace.size());
    metrics->add<obs::metric::kOnlineCancelsReplayed>(cancels.size());
    metrics->add<obs::metric::kOnlineShardsRun>(shards.size());
  }
  obs::TraceContext* spans = obs::trace_of(context);
  const obs::ScopedSpan replay_span(spans, "replay", obs::span_parent(context),
                                    static_cast<std::int64_t>(shards.size()));

  ReplayResult result;
  result.threads = t;
  result.shards = shards.size();
  if (shards.empty()) return result;

  bucket_cancels(trace, cancels, shards);
  ReplayPlan plan{trace,   cancels, params, shards, {},
                  context, metrics, spans,  replay_span.id()};
  const auto& order = trace.ids_by_start();
  if (plan.sharded() && !cancels.empty()) {
    plan.pos_by_id.resize(trace.size());
    for (std::size_t k = 0; k < order.size(); ++k)
      plan.pos_by_id[static_cast<std::size_t>(order[k])] = k;
  }

  std::vector<ShardRun> runs;
  switch (policy) {
    case OnlinePolicy::kFirstFit:
      runs = replay_shards<OnlineFirstFit>(plan, t);
      break;
    case OnlinePolicy::kBestFit:
      runs = replay_shards<OnlineBestFit>(plan, t);
      break;
    case OnlinePolicy::kEpochHybrid:
      runs = replay_shards<EpochHybrid>(plan, t);
      break;
  }

  const obs::ScopedSpan merge_span(spans, "replay_merge", replay_span.id());
  // Stitch in shard order.  Shards are time-disjoint and a sequential pool
  // never reuses a closed machine's id, so offsetting each shard's machine
  // ids by the openings before it reproduces the sequential numbering;
  // counters add, peaks max (only one shard is ever active at a time), and
  // the final clock / open set are the last shard's.  A single shard's
  // schedule already holds the trace's ids and is the result.
  if (plan.sharded()) {
    result.schedule = Schedule(trace.size());
  } else {
    result.schedule = std::move(runs.front().part);
  }
  EngineStats merged;
  MachineId base = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const ShardRun& run = runs[s];
    if (plan.sharded()) {
      const std::size_t count = shards[s].end - shards[s].begin;
      for (std::size_t j = 0; j < count; ++j) {
        const MachineId m = run.part.machine_of(static_cast<JobId>(j));
        if (m == Schedule::kUnscheduled) continue;
        result.schedule.assign(order[shards[s].begin + j], base + m);
      }
    }
    base += static_cast<MachineId>(run.stats.machines_opened);
    merged.jobs_assigned += run.stats.jobs_assigned;
    merged.machines_opened += run.stats.machines_opened;
    merged.machines_closed += run.stats.machines_closed;
    merged.open_machines += run.stats.open_machines;
    merged.active_jobs += run.stats.active_jobs;
    merged.peak_open_machines =
        std::max(merged.peak_open_machines, run.stats.peak_open_machines);
    merged.peak_active_jobs =
        std::max(merged.peak_active_jobs, run.stats.peak_active_jobs);
    merged.jobs_cancelled += run.stats.jobs_cancelled;
    merged.jobs_preempted += run.stats.jobs_preempted;
    merged.cancels_ignored += run.stats.cancels_ignored;
    merged.busy_time_refunded += run.stats.busy_time_refunded;
    merged.online_cost += run.stats.online_cost;
  }
  // Slot recycling is a per-pool storage effect: a sequential pool recycles
  // across shard boundaries where per-shard pools start fresh, so the count
  // is reconstructed from its invariant (a fresh slot is allocated exactly
  // when the open count tops its previous high water) rather than summed.
  merged.slots_recycled = merged.machines_opened - merged.peak_open_machines;
  merged.clock = runs.back().stats.clock;
  result.stats = merged;
  return result;
}

}  // namespace

ReplayResult replay_stream(const Instance& trace, OnlinePolicy policy,
                           const PolicyParams& params, int threads,
                           std::size_t min_shard_jobs,
                           const RequestContext* context) {
  return replay_events(trace, {}, policy, params, threads, min_shard_jobs,
                       context);
}

ReplayResult replay_stream(const EventTrace& trace, OnlinePolicy policy,
                           const PolicyParams& params, int threads,
                           std::size_t min_shard_jobs,
                           const RequestContext* context) {
  return replay_events(trace.base(), trace.cancels(), policy, params, threads,
                       min_shard_jobs, context);
}

}  // namespace busytime
