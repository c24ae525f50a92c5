// The stream driver: replays a workload trace through an online policy.
//
// replay_stream is the one replay path: the registry's online solvers run
// it, so run_solver reports its schedule and EngineStats together with the
// cost, the Observation 2.1 ratio and the validity that finalize computes
// for every solver — against the *residual* instance (retracted jobs
// truncated) when the trace carries cancellation/preemption records
// (EventTrace).  The replay feeds the policy arrivals in start order,
// merged with the trace's retractions by retraction_precedes_arrival.
//
// Sharded replay: interval-graph components are totally ordered in time (the
// sweep starts a new component exactly when an arrival misses the running
// frontier), so the arrival stream splits at component boundaries into
// time-disjoint shards that replay concurrently, one MachinePool per shard.
// Cancellations shard with their component: an effective record's time lies
// strictly inside its job's interval, hence strictly before any later
// component boundary, so each shard replays its own retractions in stream
// order.  Stitched in shard order, the result — assignments, cost,
// EngineStats — is identical to the sequential replay at every thread
// count; for the epoch-hybrid policy, shard cuts are restricted to
// boundaries whose idle gap is at least the epoch length (where the
// sequential run provably flushes its batch), which preserves the
// equivalence.
#pragma once

#include <cstddef>

#include "core/instance.hpp"
#include "online/event.hpp"
#include "online/scheduler.hpp"

namespace busytime {

struct RequestContext;

/// Default lower bound on jobs per shard, keeping per-shard overhead
/// amortized.
inline constexpr std::size_t kMinShardJobs = 4096;

/// Events a shard replays between two checks of the request's controls
/// (deadline, cancel token).  A shard checks before its first event and
/// then after every kCheckpointEvents events, so the check positions
/// depend on the input alone: a request either completes exactly as an
/// uncontrolled one would, or stops with an empty schedule.
inline constexpr std::size_t kCheckpointEvents = 4096;

/// A replay's schedule and merged stats (cost, validity and ratios are
/// finalize's job).
struct ReplayResult {
  Schedule schedule;
  EngineStats stats;
  int threads = 1;
  std::size_t shards = 0;
};

/// Replays `trace` (jobs in start order) through `policy` on up to
/// `threads` workers (0 = process default, 1 = sequential single pool).
/// Deterministic: identical output at every thread count.
///
/// `context` is the observability/controls hook: replay counters and
/// per-shard histograms are recorded into its metrics registry (nothing is
/// recorded when there is none) and shard spans into its trace.  Its
/// controls are checked at each shard start and every kCheckpointEvents
/// events; a tripped control throws DeadlineExceededError or
/// RequestCancelledError (api/request.hpp) out of the replay.
ReplayResult replay_stream(const Instance& trace, OnlinePolicy policy,
                           const PolicyParams& params, int threads = 1,
                           std::size_t min_shard_jobs = kMinShardJobs,
                           const RequestContext* context = nullptr);

/// Replays an event trace — arrivals interleaved with cancellations and
/// preemptions in time order (retractions first at equal times).  Same
/// determinism contract: schedule, cost, and stats are bit-identical at
/// every thread count, and the final online_cost equals
/// schedule.cost(trace.residual()).
ReplayResult replay_stream(const EventTrace& trace, OnlinePolicy policy,
                           const PolicyParams& params, int threads = 1,
                           std::size_t min_shard_jobs = kMinShardJobs,
                           const RequestContext* context = nullptr);

}  // namespace busytime
