// Registry entries for the online streaming policies.  Each adapter replays
// the instance in arrival (non-decreasing start) order through the policy's
// sharded stream driver (options.threads workers; 1 = the sequential single
// pool, with identical results either way) and reports the merged
// EngineStats verbatim, so online and offline results surface through the
// same SolveResult shape.  The run_events hook replays full event traces
// (arrivals interleaved with cancellations/preemptions) through the same
// driver — registering a policy here is all run_solver(EventTrace) needs.
#include "api/registry.hpp"
#include "online/stream_driver.hpp"

namespace busytime::detail {

namespace {

PolicyParams params_from(const SolverSpec& spec) {
  PolicyParams params;
  params.epoch_length = spec.options.epoch_length;
  params.max_batch = spec.options.max_batch;
  return params;
}

SolveResult from_replay(ReplayResult replay, std::size_t jobs,
                        const std::string& algo) {
  SolveResult r;
  r.schedule = std::move(replay.schedule);
  r.stats = replay.stats;
  r.trace.push_back({jobs, algo});
  return r;
}

/// Builds the SolverInfo shared by all three policies; `policy` drives both
/// the plain-instance and the event-trace replay.
SolverInfo stream_policy_info(std::string name, OnlinePolicy policy,
                              std::string description) {
  SolverInfo info;
  info.name = name;
  info.kind = SolverKind::kOnline;
  info.optimality = OptimalityClass::kHeuristic;
  info.ratio = 0;
  info.description = std::move(description);
  info.applicable = [](const Instance&) { return true; };
  info.needs_budget = false;
  info.dispatch_priority = -1;
  info.run = [policy, name](const Instance& inst, const SolverSpec& spec) {
    return from_replay(
        replay_stream(inst, policy, params_from(spec), spec.options.threads,
                      kMinShardJobs, spec.context.get()),
        inst.size(), name);
  };
  info.run_events = [policy, name](const EventTrace& trace,
                                   const SolverSpec& spec) {
    return from_replay(
        replay_stream(trace, policy, params_from(spec), spec.options.threads,
                      kMinShardJobs, spec.context.get()),
        trace.size(), name);
  };
  info.consumes = {"threads"};
  if (policy == OnlinePolicy::kEpochHybrid) {
    info.consumes.push_back("epoch");
    info.consumes.push_back("max_batch");
  }
  return info;
}

}  // namespace

void register_online_solvers(SolverRegistry& registry) {
  registry.add(stream_policy_info(
      "online_first_fit", OnlinePolicy::kFirstFit,
      "Streaming FirstFit: lowest-id open machine with a free slot "
      "(option: threads)"));

  registry.add(stream_policy_info(
      "online_best_fit", OnlinePolicy::kBestFit,
      "Streaming BestFit: minimal busy-interval extension among open "
      "machines (option: threads)"));

  registry.add(stream_policy_info(
      "epoch_hybrid", OnlinePolicy::kEpochHybrid,
      "Delayed commitment: batches one epoch of arrivals, re-optimizes each "
      "batch with the offline dispatcher (options: epoch, max_batch, "
      "threads)"));
}

}  // namespace busytime::detail
