// Umbrella header for the busytime library.
//
// Reproduction of "Optimizing Busy Time on Parallel Machines"
// (Mertzios, Shalom, Voloshin, Wong, Zaks — IPDPS 2012 / TCS 2015).
//
// Modules (each header is independently includable):
//   api/            unified solver API: SolverSpec/SolveResult + registry
//   core/           problem model, schedules, validity, bounds, classification
//   intervalgraph/  sweepline (peak overlap = clique number ω)
//   matching/       maximum-weight general matching (blossom, greedy)
//   algo/           MinBusy algorithms (Section 3) + exact reference solvers
//   exec/           thread pool + deterministic parallel_for helpers
//   throughput/     MaxThroughput algorithms (Section 4) + reduction
//   rect/           2-D rectangular jobs (Section 3.4)
//   online/         streaming scheduler engine (arrival-order policies)
//   service/        long-lived serving facade (async submits, cached handles)
//   net/            binary wire protocol + TCP serving tier (busytime-wire-v1)
//   obs/            metrics registry + request-scoped tracing
//   io/             text/JSON readers and writers for every artifact format
//   viz/            schedule visualization (Gantt SVG)
//   workload/       seeded synthetic instance generators
//   sim/            event-driven machine/energy simulator + app mappings
//   extensions/     Section 5 extensions (weighted, demands, ring, tree)
//   util/           flags, PRNG, tables, bit ops, field lists
#pragma once

#include "algo/best_cut.hpp"
#include "algo/clique_matching.hpp"
#include "algo/clique_setcover.hpp"
#include "algo/dispatch.hpp"
#include "algo/exact_minbusy.hpp"
#include "algo/first_fit.hpp"
#include "algo/local_search.hpp"
#include "algo/one_sided.hpp"
#include "algo/profile.hpp"
#include "algo/proper_clique_dp.hpp"
#include "api/registry.hpp"
#include "api/request.hpp"
#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/bounds.hpp"
#include "core/classify.hpp"
#include "core/components.hpp"
#include "core/instance.hpp"
#include "core/instance_view.hpp"
#include "core/job.hpp"
#include "core/schedule.hpp"
#include "core/time_types.hpp"
#include "core/validate.hpp"
#include "exec/thread_pool.hpp"
#include "extensions/capacity_demands.hpp"
#include "extensions/flexible_jobs.hpp"
#include "extensions/ring.hpp"
#include "extensions/tree_one_sided.hpp"
#include "extensions/weighted_tput.hpp"
#include "intervalgraph/sweepline.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"
#include "matching/blossom.hpp"
#include "matching/greedy_matching.hpp"
#include "matching/matching_types.hpp"
#include "net/binstream.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/engine_stats.hpp"
#include "online/epoch_hybrid.hpp"
#include "online/event.hpp"
#include "online/machine_pool.hpp"
#include "online/scheduler.hpp"
#include "online/stream_driver.hpp"
#include "rect/bucket_first_fit.hpp"
#include "rect/lower_bound_instance.hpp"
#include "rect/rect_first_fit.hpp"
#include "rect/rect_instance.hpp"
#include "rect/rect_schedule.hpp"
#include "rect/rect_types.hpp"
#include "rect/union_area.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "service/tenant_queue.hpp"
#include "sim/billing.hpp"
#include "sim/machine_sim.hpp"
#include "sim/regenerator.hpp"
#include "throughput/clique_tput.hpp"
#include "throughput/exact_tput.hpp"
#include "throughput/one_sided_tput.hpp"
#include "throughput/proper_clique_tput_dp.hpp"
#include "throughput/reduction.hpp"
#include "util/bitops.hpp"
#include "util/check.hpp"
#include "util/fields.hpp"
#include "util/flags.hpp"
#include "util/fnv.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "viz/gantt.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"
#include "workload/job_count.hpp"
#include "workload/rect_generators.hpp"
#include "workload/trace.hpp"
