// PERF — Service facade: sustained request throughput against the long-lived
// busytime::Service.  Three measurements:
//
//   cold   — the one-shot shape: blocking borrow-path solves (what the free
//            run_solver shim does), components + classification rebuilt
//            every request;
//   warm   — blocking solves against one loaded InstanceHandle: identical
//            call pattern, but every request reuses the cached InstanceView.
//            warm_speedup = cold/warm therefore isolates exactly what the
//            decomposition cache buys;
//   mixed  — a five-solver portfolio submitted asynchronously against the
//            warm handle (the serve-mode shape; adds worker parallelism);
//   cached — repeated identical specs against a cache-enabled Service
//            (its own instance, so the main sections stay cache-free):
//            after one priming miss every request is a submit-time cache
//            hit.  cached_speedup = warm/cached isolates what the result
//            cache buys on top of the decomposition cache, and the run
//            fails unless it is >= 5x;
//   overload — a burst against a second dedicated Service with a tiny
//            admission cap and three weighted tenants.  How many requests
//            shed is scheduling-dependent (reported under "observed",
//            which the bench diff ignores), but two invariants are gated:
//            every result lands on a terminal status and the service.shed
//            counter equals the number of kShedded results.
//
// Every computed result is verified bit-identical to sequential run_solver
// (cached copies modulo wall_ms/cached by the "cached = computed"
// contract), and the run emits BENCH_service.json for the perf trajectory.
//
// Flags:
//   --n=N          jobs in the trace                   (default 20000)
//   --g=G          machine capacity                    (default 8)
//   --seed=S       trace seed                          (default 2012)
//   --rate=R       mean arrivals per time unit         (default 0.5)
//   --requests=K   requests per measurement            (default 100)
//   --workers=W    Service worker count                (default 2)
//   --out=FILE     JSON output path                    (default BENCH_service.json)
//   --smoke        CI mode: n=5000, 30 requests
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "api/registry.hpp"
#include "io/json.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool same_result(const SolveResult& a, const SolveResult& b) {
  return a.solver == b.solver && a.status == b.status && a.cost == b.cost &&
         a.throughput == b.throughput && a.valid == b.valid &&
         a.schedule.assignment() == b.schedule.assignment() &&
         a.trace == b.trace && a.stats == b.stats;
}

struct Measurement {
  double wall_ms = 0;
  double requests_per_sec = 0;
  bool identical = true;
};

json::Value to_json(const Measurement& m) {
  json::Value v = json::Value::object();
  v.set("wall_ms", m.wall_ms);
  v.set("requests_per_sec", m.requests_per_sec);
  v.set("identical", m.identical);
  return v;
}

int main_impl(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");

  TraceParams tp;
  tp.n = static_cast<int>(flags.get_int("n", smoke ? 5000 : 20000));
  tp.g = static_cast<int>(flags.get_int("g", 8));
  tp.arrival_rate = flags.get_double("rate", 0.5);
  tp.diurnal = true;
  tp.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2012));
  const int requests =
      static_cast<int>(flags.get_int("requests", smoke ? 30 : 100));
  const int workers = static_cast<int>(flags.get_int("workers", 2));
  const std::string out_path = flags.get("out", "BENCH_service.json");

  const Instance trace = gen_trace(tp);
  trace.ids_by_start();  // warm the memoized order outside every timing
  const SolverSpec spec = SolverSpec::parse("auto");
  const SolveResult baseline = run_solver(trace, spec);

  Service service(ServiceConfig{workers});

  // --------------------------------------------------------- cold solves ---
  // Borrow-path blocking solves: no handle, every request rebuilds
  // components and classification — exactly the one-shot run_solver shape.
  Measurement cold;
  {
    const double t0 = now_ms();
    for (int r = 0; r < requests; ++r)
      cold.identical =
          cold.identical && same_result(service.solve(trace, spec), baseline);
    cold.wall_ms = now_ms() - t0;
    cold.requests_per_sec = requests / (cold.wall_ms / 1000.0);
  }

  // --------------------------------------------------------- warm solves ---
  // Same blocking call pattern against one loaded handle: the only delta
  // vs cold is the cached decomposition, so cold/warm is the cache's win.
  Measurement warm;
  const InstanceHandle handle = service.load(trace);
  {
    const double t0 = now_ms();
    for (int r = 0; r < requests; ++r)
      warm.identical =
          warm.identical && same_result(service.solve(handle, spec), baseline);
    warm.wall_ms = now_ms() - t0;
    warm.requests_per_sec = requests / (warm.wall_ms / 1000.0);
  }

  // ---------------------------------------------- mixed sustained batch ---
  // A portfolio of specs against the shared warm handle, the serve-mode
  // shape; identity checked against sequential run_solver per spec.
  Measurement mixed;
  std::size_t mixed_requests = 0;
  std::vector<SolverSpec> portfolio;
  for (const char* name : {"auto", "first_fit", "online_first_fit",
                           "online_best_fit", "epoch_hybrid"})
    portfolio.push_back(SolverSpec::parse(name));
  std::vector<SolveResult> portfolio_baseline;
  for (const SolverSpec& s : portfolio)
    portfolio_baseline.push_back(run_solver(trace, s));
  {
    const int rounds = (requests + static_cast<int>(portfolio.size()) - 1) /
                       static_cast<int>(portfolio.size());
    const double t0 = now_ms();
    std::vector<std::future<SolveResult>> futures;
    for (int round = 0; round < rounds; ++round)
      for (const SolverSpec& s : portfolio)
        futures.push_back(service.submit(handle, s));
    for (std::size_t i = 0; i < futures.size(); ++i)
      mixed.identical = mixed.identical &&
                        same_result(futures[i].get(),
                                    portfolio_baseline[i % portfolio.size()]);
    mixed.wall_ms = now_ms() - t0;
    mixed_requests = futures.size();
    mixed.requests_per_sec =
        static_cast<double>(mixed_requests) / (mixed.wall_ms / 1000.0);
  }

  // ------------------------------------------------------- cached solves ---
  // Same blocking warm-handle pattern as `warm`, but on a Service with the
  // result cache on: request 0 primes the entry (one miss), every later
  // request is a submit-time hit.  warm/cached is the result cache's win;
  // sequential, so the hit/miss split is exact and the diff gates it.
  Measurement cached;
  std::uint64_t cached_hits = 0;
  std::uint64_t cached_misses = 0;
  {
    ServiceConfig cache_config;
    cache_config.workers = workers;
    cache_config.cache_bytes = 32u << 20;
    Service cache_service(cache_config);
    const InstanceHandle cache_handle = cache_service.load(trace);
    cache_service.solve(cache_handle, spec);  // prime: the one miss
    const double t0 = now_ms();
    for (int r = 0; r < requests; ++r)
      cached.identical = cached.identical &&
                         same_result(cache_service.solve(cache_handle, spec),
                                     baseline);
    cached.wall_ms = now_ms() - t0;
    cached.requests_per_sec = requests / (cached.wall_ms / 1000.0);
    const obs::MetricsSnapshot snap = cache_service.metrics_snapshot();
    cached_hits = snap.counter_value(obs::metric::kServiceCacheHits);
    cached_misses = snap.counter_value(obs::metric::kServiceCacheMisses);
  }

  // ------------------------------------------------- tenant overload burst ---
  // A dedicated Service with a tiny admission cap and three weighted
  // tenants, hit with a burst it cannot absorb.  The shed/ok split depends
  // on scheduling, so it goes under "observed" (diff-ignored); what the
  // bench gates is the admission contract: terminal statuses only, and
  // service.shed agreeing with the results.
  bool overload_terminal = true;
  bool shed_matches_metric = true;
  std::uint64_t overload_ok = 0;
  std::uint64_t overload_shed = 0;
  std::uint64_t overload_other = 0;
  const int overload_requests = 48;
  const std::size_t overload_cap = 6;
  {
    ServiceConfig overload_config;
    overload_config.workers = workers;
    overload_config.max_queue = overload_cap;
    Service overload_service(overload_config);
    const InstanceHandle overload_handle = overload_service.load(trace);
    const SolverSpec burst_spec = SolverSpec::parse("first_fit");
    std::vector<TenantHandle> tenants = {
        overload_service.tenant("alpha", 1),
        overload_service.tenant("beta", 2),
        overload_service.tenant("gamma", 4),
    };
    std::vector<std::future<SolveResult>> futures;
    futures.reserve(overload_requests);
    for (int r = 0; r < overload_requests; ++r)
      futures.push_back(overload_service.submit(
          overload_handle, burst_spec, tenants[r % tenants.size()]));
    for (auto& future : futures) {
      const SolveResult result = future.get();
      switch (result.status) {
        case SolveStatus::kOk: ++overload_ok; break;
        case SolveStatus::kShedded:
          ++overload_shed;
          // Shed results carry an instance-sized empty schedule, never a
          // partial one.
          overload_terminal =
              overload_terminal && !result.valid &&
              result.schedule.assignment().size() == trace.size();
          break;
        case SolveStatus::kDeadline:
        case SolveStatus::kCancelled:
          ++overload_other;  // terminal too; not expected here, not a violation
          break;
      }
    }
    shed_matches_metric = overload_service.metrics_snapshot().counter_value(
                              obs::metric::kServiceShed) == overload_shed;
    overload_terminal = overload_terminal &&
                        overload_ok + overload_shed + overload_other ==
                            static_cast<std::uint64_t>(overload_requests);
  }

  // ---------------------------------------------------------------- emit ---
  json::Value root = json::Value::object();
  root.set("bench", "service");
  root.set("smoke", smoke);
  root.set("hardware_threads", exec::hardware_threads());
  root.set("jobs", static_cast<std::int64_t>(trace.size()));
  root.set("g", tp.g);
  root.set("seed", static_cast<std::int64_t>(tp.seed));
  root.set("requests", requests);
  root.set("workers", service.workers());
  root.set("cold", to_json(cold));
  root.set("warm", to_json(warm));
  root.set("mixed", to_json(mixed));
  {
    // Sequential, so the hit/miss split is deterministic: one priming
    // miss, every measured request a hit — the diff gates both.
    json::Value v = to_json(cached);
    v.set("cache_hits", static_cast<std::int64_t>(cached_hits));
    v.set("cache_misses", static_cast<std::int64_t>(cached_misses));
    root.set("cached", std::move(v));
  }
  {
    json::Value v = json::Value::object();
    v.set("requests", overload_requests);
    v.set("max_queue", static_cast<std::int64_t>(overload_cap));
    v.set("tenants", 3);
    v.set("statuses_terminal", overload_terminal);
    v.set("shed_matches_metric", shed_matches_metric);
    // The ok/shed split depends on how fast the pump drains vs the burst;
    // "observed" is diff-ignored by design.
    json::Value observed = json::Value::object();
    observed.set("ok", static_cast<std::int64_t>(overload_ok));
    observed.set("shed", static_cast<std::int64_t>(overload_shed));
    observed.set("other", static_cast<std::int64_t>(overload_other));
    v.set("observed", std::move(observed));
    root.set("overload", std::move(v));
  }
  root.set("warm_speedup", cold.wall_ms / warm.wall_ms);
  root.set("cached_speedup", warm.wall_ms / cached.wall_ms);
  root.set("view_builds", static_cast<std::int64_t>(handle->view_builds()));
  root.set("view_hits", static_cast<std::int64_t>(handle->view_hits()));
  // Full busytime-metrics-v1 snapshot of the Service registry (request
  // counters, latency histograms, worker-pool utilization gauges), plus the
  // headline utilization number for the trajectory dashboard.
  const exec::PoolStats pool = service.pool_stats();
  root.set("utilization", pool.utilization());
  root.set("metrics", service.metrics_snapshot().to_json());

  std::ofstream out(out_path);
  out << root.dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";

  Table table({"path", "requests", "wall_ms", "requests/sec", "identical"});
  table.add_row({"cold (no handle)", Table::fmt(static_cast<long long>(requests)),
                 Table::fmt(cold.wall_ms), Table::fmt(cold.requests_per_sec),
                 cold.identical ? "yes" : "NO"});
  table.add_row({"warm (shared handle)", Table::fmt(static_cast<long long>(requests)),
                 Table::fmt(warm.wall_ms), Table::fmt(warm.requests_per_sec),
                 warm.identical ? "yes" : "NO"});
  table.add_row({"mixed async portfolio",
                 Table::fmt(static_cast<long long>(mixed_requests)),
                 Table::fmt(mixed.wall_ms), Table::fmt(mixed.requests_per_sec),
                 mixed.identical ? "yes" : "NO"});
  table.add_row({"cached (result cache)",
                 Table::fmt(static_cast<long long>(requests)),
                 Table::fmt(cached.wall_ms), Table::fmt(cached.requests_per_sec),
                 cached.identical ? "yes" : "NO"});
  table.print(std::cout);
  std::cout << "warm speedup vs cold: " << Table::fmt(cold.wall_ms / warm.wall_ms)
            << "x  (view_builds=" << handle->view_builds()
            << " view_hits=" << handle->view_hits()
            << " utilization=" << Table::fmt(pool.utilization()) << ")\n";
  std::cout << "cached speedup vs warm: "
            << Table::fmt(warm.wall_ms / cached.wall_ms) << "x  (hits="
            << cached_hits << " misses=" << cached_misses << ")\n";
  std::cout << "overload burst: ok=" << overload_ok << " shed=" << overload_shed
            << " of " << overload_requests << " (cap=" << overload_cap
            << ", statuses_terminal=" << (overload_terminal ? "yes" : "NO")
            << ", shed_matches_metric=" << (shed_matches_metric ? "yes" : "NO")
            << ")\n";

  if (!cold.identical || !warm.identical || !mixed.identical ||
      !cached.identical) {
    std::cerr << "error: a facade result diverged from sequential run_solver\n";
    return 1;
  }
  if (handle->view_builds() != 1) {
    std::cerr << "error: warm handle rebuilt its view "
              << handle->view_builds() << " times\n";
    return 1;
  }
  if (warm.wall_ms < cached.wall_ms * 5) {
    std::cerr << "error: result cache speedup "
              << Table::fmt(warm.wall_ms / cached.wall_ms)
              << "x is below the 5x floor\n";
    return 1;
  }
  if (cached_misses != 1 ||
      cached_hits != static_cast<std::uint64_t>(requests)) {
    std::cerr << "error: cached section expected 1 miss / " << requests
              << " hits, saw " << cached_misses << " / " << cached_hits << "\n";
    return 1;
  }
  if (!overload_terminal || !shed_matches_metric) {
    std::cerr << "error: overload burst broke the admission contract\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace busytime

int main(int argc, char** argv) { return busytime::main_impl(argc, argv); }
