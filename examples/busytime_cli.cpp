// Command-line driver over the unified solver API and the Service facade.
//
//   busytime_cli --list-solvers [--json]
//   busytime_cli --list-metrics [--json]
//   busytime_cli solve (--in=FILE | --family=NAME --n=N --g=G --seed=S)
//                [--solver=SPEC|all] [--budget=T] [--epoch=T] [--max_batch=K]
//                [--threads=N] [--improve] [--deadline_ms=D] [--trace] [--json]
//                [--json-out=FILE] [--out=FILE] [--gantt]
//   busytime_cli serve (--in=FILE | --family=NAME --n=N --g=G --seed=S)
//                --specs=FILE [--workers=N] [--deadline_ms=D]
//                [--cache-mb=M] [--max-queue=N] [--tenants=FILE]
//                [--stats-every=N] [--metrics-out=FILE] [--json]
//   busytime_cli serve --listen=PORT [--host=ADDR] [--workers=N]
//                [--cache-mb=M] [--max-queue=N] [--metrics-out=FILE]
//   busytime_cli client --connect=HOST:PORT
//                (--ping | --list-solvers | --shutdown |
//                 (--in=FILE | --family=NAME --n=N --g=G --seed=S)
//                 [--solver=SPEC] [solve output flags])
//   busytime_cli diff  a.json b.json [--tol=R]
//   busytime_cli gen   --family=NAME --n=N --g=G --seed=S [--out=FILE]
//                [--cancel_rate=P] [--preempt_frac=P]
//   busytime_cli check --in=FILE --schedule=FILE
//
// A solver SPEC is a registry name with optional options, e.g.
// "auto", "best_cut", "epoch_hybrid:epoch=256", "tput_clique:budget=500";
// "--solver=all" runs every applicable registered solver side by side and
// reports each cost next to the Observation 2.1 lower bound.  "--json"
// emits machine-readable busytime-result-v1 documents.  Non-default
// options the chosen solver never reads are warned about on stderr (they
// are also recorded in the result's ignored_options).
//
// "serve" is the batch mode over the long-lived Service facade: one
// workload is loaded into an InstanceHandle once (components and
// per-component classification cached), then every spec in --specs (one
// per line, '#' comments) is submitted asynchronously against it;
// --deadline_ms is the per-request default for specs without their own
// deadline_ms, and expired requests report status "deadline" instead of
// failing the batch.  "--cache-mb=M" turns on the Service result cache
// (repeated specs against the same instance come back from memory, marked
// cached with wall_ms=0), "--max-queue=N" caps queued requests and sheds
// the overflow with status "shedded" (empty schedule, never partial), and
// "--tenants=FILE" ("name weight [max_queue]" per line, '#' comments)
// registers weighted tenants and deals the batch's specs across them
// round-robin, exercising deficit-round-robin dispatch under contention.
//
// "serve --listen=PORT" is the network mode: it binds a TCP endpoint
// (port 0 picks an ephemeral port; the resolved address is printed as
// "listening on HOST:PORT" and flushed before the loop starts, so a parent
// process can parse it and connect) and runs the src/net/ poll() reactor
// over the same Service until a client sends a shutdown frame or the
// process is signalled.  "client --connect=HOST:PORT" is the matching
// remote mode: it loads the workload over the busytime-wire-v1 protocol
// (docs/FORMATS.md) into a connection-scoped handle and solves against it,
// mirroring "solve"'s workload/solver/output flags — results are
// bit-identical to an in-process solve of the same workload and spec —
// plus --ping, --list-solvers, and --shutdown for liveness, discovery, and
// drain.
//
// "diff" compares two busytime-result-v1 files (e.g. --json-out of two
// builds) and exits nonzero when the second regresses the first: higher
// cost, lower throughput, lost validity, or a degraded request status —
// the check that turns saved result files into dashboardable artifacts.
// Given two BENCH_*.json files (any document with a "bench" key) it instead
// diffs them structurally, ignoring timing-only fields (wall_ms, *_per_sec,
// speedup, utilization, *_us/*_ns, hardware_threads) while gating the
// deterministic fields — counters, shard counts, costs, and above all
// "identical", whose true→false flip is always a regression.
//
// Observability surface: "solve --trace" records a request-scoped span tree
// (busytime-trace-v1) and prints it after the summary (embedded under
// "trace" with --json); "--list-metrics" enumerates the metric catalog;
// "serve --stats-every=N" emits a compact busytime-metrics-v1 snapshot to
// stderr every N completed requests, "serve --metrics-out=FILE" saves the
// final snapshot, and "serve --json" embeds it under "metrics".
//
// Input files may carry interleaved cancel/preempt records (docs/FORMATS.md)
// and "gen --cancel_rate=P" produces them: online solvers replay the merged
// event stream (busy-time refunds, slot recycling), every other solver —
// and the lower bound, validation, and "check" — works on the residual
// instance, the workload that actually ran.
//
// "--threads=N" (0 = hardware concurrency, 1 = sequential) sets the worker
// count for per-component solving, sharded online replay, and the
// side-by-side "--solver=all" comparison, which runs the solvers
// concurrently on the shared pool.  Thread count never changes results
// (costs, schedules, validity); per-solver wall_ms under a concurrent
// "--solver=all" is measured on the contended pool, so pass --threads=1
// when clean per-solver timings matter more than total wall time.
//
// Instance families: general, clique, proper, proper_clique, one_sided,
// trace.
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "api/registry.hpp"
#include "busytime.hpp"
#include "exec/thread_pool.hpp"
#include "io/serialize.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "viz/gantt.hpp"

namespace {

using namespace busytime;

int usage() {
  std::cerr
      << "usage: busytime_cli <command> [--flags]\n"
      << "  --list-solvers [--json]                      enumerate the registry\n"
      << "  --list-metrics [--json]                      enumerate the metric catalog\n"
      << "  solve (--in=FILE | --family=F --n=N --g=G --seed=S)\n"
      << "        [--solver=SPEC|all] [--budget=T] [--epoch=T] [--max_batch=K]\n"
      << "        [--threads=N] [--improve] [--deadline_ms=D] [--trace] [--json]\n"
      << "        [--json-out=FILE] [--out=FILE] [--gantt]\n"
      << "  serve (--in=FILE | --family=F --n=N --g=G --seed=S)\n"
      << "        --specs=FILE [--workers=N] [--deadline_ms=D]\n"
      << "        [--cache-mb=M] [--max-queue=N] [--tenants=FILE]\n"
      << "        [--stats-every=N] [--metrics-out=FILE] [--json]\n"
      << "  serve --listen=PORT [--host=ADDR] [--workers=N]\n"
      << "        [--cache-mb=M] [--max-queue=N] [--metrics-out=FILE]\n"
      << "  client --connect=HOST:PORT (--ping | --list-solvers | --shutdown |\n"
      << "        workload flags as in solve [--solver=SPEC] [output flags])\n"
      << "  diff  a.json b.json [--tol=R]       result-v1 or BENCH_*.json files\n"
      << "  gen   --family=F --n=N --g=G --seed=S [--out=FILE]\n"
      << "        [--cancel_rate=P] [--preempt_frac=P]\n"
      << "  check --in=FILE --schedule=FILE\n"
      << "solver SPEC = name[:k=v,...], e.g. epoch_hybrid:epoch=256\n"
      << "inputs may carry cancel/preempt records (see docs/FORMATS.md)\n";
  return 2;
}

Instance generate_base(const Flags& flags) {
  GenParams p;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  p.n = static_cast<int>(flags.get_int_in("n", 50, 0, kIntMax));
  p.g = static_cast<int>(flags.get_int_in("g", 4, 1, kIntMax));
  p.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string family = flags.get("family", "general");
  if (family == "clique") return gen_clique(p);
  if (family == "proper") return gen_proper(p);
  if (family == "proper_clique") return gen_proper_clique(p);
  if (family == "one_sided") return gen_one_sided(p);
  if (family == "general") return gen_general(p);
  if (family == "trace") {
    TraceParams t;
    t.n = p.n;
    t.g = p.g;
    t.seed = p.seed;
    return gen_trace(t);
  }
  throw std::invalid_argument("unknown family '" + family + "' (general, clique, "
                              "proper, proper_clique, one_sided, trace)");
}

/// Generated workload, optionally with retraction records layered on top.
EventTrace generate(const Flags& flags) {
  Instance base = generate_base(flags);
  const double cancel_rate = flags.get_double("cancel_rate", 0.0);
  if (cancel_rate <= 0.0) return EventTrace(std::move(base));
  CancelParams cp;
  cp.cancel_rate = cancel_rate;
  cp.preempt_fraction = flags.get_double("preempt_frac", cp.preempt_fraction);
  cp.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  return with_random_cancels(std::move(base), cp);
}

/// The event trace a solve command operates on: a file or a generator
/// family.  Plain instance files load as traces with zero retractions.
EventTrace load_or_generate(const Flags& flags) {
  if (flags.has("in")) return load_event_trace(flags.get("in", ""));
  return generate(flags);
}

/// One-line workload summary: the base instance plus the retraction counts.
/// Dropped records (could never take effect — typo'd instants, duplicate
/// retractions) are surfaced so a silently-canonicalized input is visible.
std::string trace_summary(const EventTrace& trace) {
  std::string text = trace.base().summary();
  if (trace.has_cancels())
    text += "  cancels=" + std::to_string(trace.cancels().size());
  if (trace.dropped_cancels() > 0)
    text += "  dropped_cancels=" + std::to_string(trace.dropped_cancels());
  return text;
}

/// Solver spec from --solver plus the flag shortcuts.
SolverSpec make_spec(const Flags& flags) {
  SolverSpec spec = SolverSpec::parse(flags.get("solver", "auto"));
  if (flags.has("budget")) spec.options.set("budget", flags.get("budget", ""));
  if (flags.has("epoch")) spec.options.set("epoch", flags.get("epoch", ""));
  if (flags.has("max_batch")) spec.options.set("max_batch", flags.get("max_batch", ""));
  if (flags.has("threads")) spec.options.set("threads", flags.get("threads", ""));
  if (flags.has("deadline_ms"))
    spec.options.set("deadline_ms", flags.get("deadline_ms", ""));
  if (flags.get_bool("improve")) spec.options.improve = true;
  return spec;
}

/// Surfaces options the solver never read; silent acceptance is how typos
/// like --epoch on an offline solver go unnoticed.
void warn_ignored(const SolveResult& result) {
  if (result.ignored_options.empty()) return;
  std::cerr << "warning: solver '" << result.solver << "' ignored option"
            << (result.ignored_options.size() > 1 ? "s" : "") << ": ";
  for (std::size_t i = 0; i < result.ignored_options.size(); ++i)
    std::cerr << (i ? ", " : "") << result.ignored_options[i];
  std::cerr << "\n";
}

/// The single-result tail "solve" and "client" share: the report on stdout
/// (a busytime-result-v1 document with --json, carrying the recorded span
/// tree under "trace" when there is one), the --json-out / --out / --gantt
/// artifacts, and the exit code — 1 unless the request completed with a
/// valid schedule.  `origin` follows the workload summary in the text
/// report.
int report_result(const Flags& flags, const EventTrace& trace,
                  const SolveResult& result, const std::string& origin,
                  const obs::TraceContext* spans) {
  warn_ignored(result);
  if (flags.get_bool("json")) {
    if (spans != nullptr) {
      json::Value root = result_to_json_value(result);
      root.set("trace", spans->to_json());
      std::cout << root.dump(2) << "\n";
    } else {
      std::cout << result_to_json(result);
    }
  } else {
    std::cout << trace_summary(trace) << origin << "\n"
              << result.summary() << "\n";
    if (spans != nullptr) std::cout << "\n" << spans->to_text();
  }
  if (flags.has("json-out")) save_result_json(flags.get("json-out", ""), result);
  if (flags.has("out")) save_schedule(flags.get("out", ""), result.schedule);
  if (flags.get_bool("gantt"))
    std::cout << render_gantt(trace.residual(), result.schedule);
  if (result.status != SolveStatus::kOk) {
    std::cerr << "error: request did not complete: " << to_string(result.status)
              << "\n";
    return 1;
  }
  if (!result.valid) {
    std::cerr << "error: solver produced an invalid schedule\n";
    return 1;
  }
  return 0;
}

/// --metrics-out=FILE, shared by both serve modes: saves the final
/// busytime-metrics-v1 snapshot.
void write_metrics_out(const Flags& flags,
                       const obs::MetricsSnapshot& snapshot) {
  if (!flags.has("metrics-out")) return;
  const std::string path = flags.get("metrics-out", "");
  std::ofstream metrics_file(path);
  if (!metrics_file)
    throw std::runtime_error("cannot write metrics file: " + path);
  metrics_file << snapshot.to_json().dump(2) << "\n";
}

int cmd_list_solvers(const Flags& flags) {
  const SolverRegistry& registry = SolverRegistry::instance();
  if (flags.get_bool("json")) {
    json::Value out = json::Value::array();
    for (const SolverInfo* info : registry.all()) {
      json::Value entry = json::Value::object();
      entry.set("name", info->name);
      entry.set("kind", to_string(info->kind));
      entry.set("optimality", to_string(info->optimality));
      entry.set("ratio", info->ratio);
      entry.set("needs_budget", info->needs_budget);
      entry.set("dispatch_priority", info->dispatch_priority);
      entry.set("description", info->description);
      out.push_back(std::move(entry));
    }
    std::cout << out.dump(2) << "\n";
    return 0;
  }
  Table table({"name", "kind", "optimality", "ratio", "budget", "dispatch", "description"});
  for (const SolverInfo* info : registry.all()) {
    table.add_row({info->name, to_string(info->kind), to_string(info->optimality),
                   info->ratio > 0 ? Table::fmt(info->ratio) : "-",
                   info->needs_budget ? "yes" : "-",
                   info->dispatch_priority >= 0 ? Table::fmt(static_cast<long long>(
                                                      info->dispatch_priority))
                                                : "-",
                   info->description});
  }
  table.print(std::cout);
  std::cout << registry.size() << " solvers registered\n";
  return 0;
}

/// Enumerates the builtin metric catalog — the machine-readable source of
/// truth that docs/OBSERVABILITY.md and scripts/check_docs.py diff against.
int cmd_list_metrics(const Flags& flags) {
  if (flags.get_bool("json")) {
    json::Value out = json::Value::array();
    for (const obs::MetricDef& def : obs::kMetricCatalog) {
      json::Value entry = json::Value::object();
      entry.set("name", def.name);
      entry.set("kind", obs::to_string(def.kind));
      entry.set("help", def.help);
      out.push_back(std::move(entry));
    }
    std::cout << out.dump(2) << "\n";
    return 0;
  }
  Table table({"metric", "kind", "help"});
  for (const obs::MetricDef& def : obs::kMetricCatalog)
    table.add_row({def.name, obs::to_string(def.kind), def.help});
  table.print(std::cout);
  std::cout << std::size(obs::kMetricCatalog) << " metrics registered\n";
  return 0;
}

int cmd_solve_all(const EventTrace& trace, const Flags& flags,
                  const SolverSpec& base) {
  // Applicability and the certified lower bound are judged on the residual
  // instance — the workload that actually runs once retractions land.
  const Instance& residual = trace.residual();
  const CostBounds bounds = compute_bounds(residual);
  json::Value results = json::Value::array();
  json::Value skipped = json::Value::array();
  Table table({"solver", "kind", "cost", "lower_bound", "ratio", "tput", "machines",
               "wall_ms", "valid"});
  bool all_valid = true;

  // Decide run/skip sequentially (cheap predicates), then run the solvers
  // side by side on the shared pool; each SolveResult carries its own wall
  // time.  Output order stays the registry's name order regardless of which
  // solver finishes first.
  std::vector<const SolverInfo*> runnable;
  std::vector<SolverSpec> specs;
  for (const SolverInfo* info : SolverRegistry::instance().all()) {
    SolverSpec spec = base;
    spec.name = info->name;
    std::string skip_reason;
    if (info->needs_budget && spec.options.budget < 0)
      skip_reason = "needs --budget";
    else if (!info->applicable(residual))
      skip_reason = "not applicable";
    if (!skip_reason.empty()) {
      json::Value s = json::Value::object();
      s.set("solver", info->name);
      s.set("reason", skip_reason);
      skipped.push_back(std::move(s));
      continue;
    }
    runnable.push_back(info);
    specs.push_back(std::move(spec));
  }

  std::vector<SolveResult> solved(runnable.size());
  exec::parallel_for(/*threads=*/0, runnable.size(), [&](std::size_t i) {
    solved[i] = run_solver(trace, specs[i]);
  });

  for (std::size_t i = 0; i < runnable.size(); ++i) {
    const SolveResult& result = solved[i];
    warn_ignored(result);
    // Deadline/cancel-tripped requests are a request outcome, not a solver
    // correctness failure; only a completed-but-invalid schedule is an
    // error.
    all_valid = all_valid && (result.status != SolveStatus::kOk || result.valid);
    table.add_row({result.solver, to_string(runnable[i]->kind),
                   Table::fmt(static_cast<long long>(result.cost)),
                   Table::fmt(bounds.lower_bound()),
                   Table::fmt(result.ratio_to_lower_bound),
                   Table::fmt(result.throughput),
                   Table::fmt(static_cast<long long>(result.stats.machines_opened)),
                   Table::fmt(result.wall_ms),
                   result.status != SolveStatus::kOk ? to_string(result.status)
                   : result.valid                    ? "yes"
                                                     : "NO"});
    results.push_back(result_to_json_value(result));
  }
  if (flags.get_bool("json")) {
    json::Value root = json::Value::object();
    root.set("instance", trace_summary(trace));
    root.set("jobs", static_cast<std::int64_t>(trace.size()));
    root.set("g", trace.g());
    root.set("cancels", static_cast<std::int64_t>(trace.cancels().size()));
    root.set("lower_bound", bounds.lower_bound());
    root.set("results", std::move(results));
    root.set("skipped", std::move(skipped));
    std::cout << root.dump(2) << "\n";
  } else {
    std::cout << trace_summary(trace) << "  lower_bound=" << bounds.lower_bound()
              << "\n";
    table.print(std::cout);
  }
  if (!all_valid) {
    std::cerr << "error: some solver produced an invalid schedule\n";
    return 1;
  }
  return 0;
}

int cmd_solve(const Flags& flags) {
  const EventTrace trace = load_or_generate(flags);
  SolverSpec spec = make_spec(flags);
  if (spec.name == "all") {
    if (flags.get_bool("trace"))
      std::cerr << "warning: --trace applies to single-solver runs; ignored "
                   "with --solver=all\n";
    return cmd_solve_all(trace, flags, spec);
  }

  // --trace attaches a request-scoped span recorder to this one solve; the
  // resulting tree (view/classify, per-component solves, merge, shards) is
  // printed after the summary, or embedded under "trace" with --json.
  std::shared_ptr<obs::TraceContext> spans;
  if (flags.get_bool("trace")) {
    spans = std::make_shared<obs::TraceContext>();
    spec.trace = spans;
  }

  return report_result(flags, trace, run_solver(trace, spec), "", spans.get());
}

/// Parses a specs file for serve mode: one solver spec per line, blank
/// lines and '#' comments skipped.
std::vector<SolverSpec> load_specs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open specs file: " + path);
  std::vector<SolverSpec> specs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    specs.push_back(SolverSpec::parse(line.substr(begin, end - begin + 1)));
  }
  if (specs.empty())
    throw std::runtime_error("specs file has no specs: " + path);
  return specs;
}

/// One line of a --tenants file: "name weight [max_queue]".
struct TenantDef {
  std::string name;
  int weight = 1;
  std::size_t max_queue = 0;
};

/// Parses a tenants file: one "name weight [max_queue]" per line, blank
/// lines and '#' comments skipped.
std::vector<TenantDef> load_tenant_defs(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open tenants file: " + path);
  std::vector<TenantDef> defs;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    TenantDef def;
    if (!(fields >> def.name)) continue;
    if (!(fields >> def.weight) || def.weight < 1)
      throw std::runtime_error("tenants file: \"" + def.name +
                               "\" needs a weight >= 1: " + path);
    fields >> def.max_queue;  // optional; 0 = unlimited
    defs.push_back(std::move(def));
  }
  if (defs.empty())
    throw std::runtime_error("tenants file has no tenants: " + path);
  return defs;
}

/// Serve-mode ServiceConfig from the shared flags: --workers, --cache-mb
/// (result cache capacity, 0 = off), --max-queue (admission cap, 0 = off).
ServiceConfig service_config_from_flags(const Flags& flags) {
  ServiceConfig config;
  config.workers = static_cast<int>(flags.get_int("workers", 0));
  config.cache_bytes =
      static_cast<std::size_t>(flags.get_int("cache-mb", 0)) << 20;
  config.max_queue = static_cast<std::size_t>(flags.get_int("max-queue", 0));
  return config;
}

/// Network serve mode: bind, announce the resolved endpoint on stdout, and
/// run the reactor until a shutdown frame arrives.
int cmd_serve_listen(const Flags& flags) {
  Service service(service_config_from_flags(flags));

  net::ServerConfig server_config;
  server_config.host = flags.get("host", "127.0.0.1");
  server_config.port = static_cast<std::uint16_t>(flags.get_int("listen", 0));
  net::Server server(service, server_config);

  // The line parents parse to learn the ephemeral port; std::endl flushes
  // it before the (potentially long-lived) loop starts.
  std::cout << "listening on " << server.host() << ":" << server.port()
            << std::endl;
  server.run();

  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  write_metrics_out(flags, snapshot);
  std::cout << "server drained: connections="
            << snapshot.counter_value(obs::metric::kNetConnections)
            << " frames_in=" << snapshot.counter_value(obs::metric::kNetFramesIn)
            << " frames_out=" << snapshot.counter_value(obs::metric::kNetFramesOut)
            << " decode_errors="
            << snapshot.counter_value(obs::metric::kNetDecodeErrors)
            << " requests="
            << snapshot.counter_value(obs::metric::kServiceRequests)
            << " shed=" << snapshot.counter_value(obs::metric::kServiceShed)
            << " cache_hits="
            << snapshot.counter_value(obs::metric::kServiceCacheHits) << "\n";
  return 0;
}

/// Remote solve over the busytime-wire-v1 protocol, mirroring "solve"'s
/// workload and output flags.  The solve itself runs on the server; results
/// are bit-identical to an in-process run of the same workload and spec.
int cmd_client(const Flags& flags) {
  if (!flags.has("connect")) {
    std::cerr << "error: client needs --connect=HOST:PORT\n";
    return 2;
  }
  const auto [host, port] = net::split_host_port(flags.get("connect", ""));
  net::Client client(host, port);

  if (flags.get_bool("shutdown")) {
    client.shutdown_server();
    std::cout << "server at " << host << ":" << port << " shutting down\n";
    return 0;
  }
  if (flags.get_bool("ping")) {
    const auto t0 = std::chrono::steady_clock::now();
    client.ping();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    std::cout << "pong from " << host << ":" << port << " in " << Table::fmt(ms)
              << " ms\n";
    return 0;
  }
  if (flags.get_bool("list-solvers")) {
    Table table({"name", "kind", "optimality", "ratio", "budget", "description"});
    const std::vector<net::WireSolverInfo> infos = client.list_solvers();
    for (const net::WireSolverInfo& info : infos)
      table.add_row({info.name, info.kind, info.optimality,
                     info.ratio > 0 ? Table::fmt(info.ratio) : "-",
                     info.needs_budget ? "yes" : "-", info.description});
    table.print(std::cout);
    std::cout << infos.size() << " solvers registered remotely\n";
    return 0;
  }

  const EventTrace trace = load_or_generate(flags);
  SolverSpec spec = make_spec(flags);
  if (flags.get_bool("trace"))
    std::cerr << "warning: --trace is request-scoped and does not travel "
                 "over the wire; ignored\n";
  if (spec.name == "all") {
    std::cerr << "error: --solver=all is an in-process comparison; pick one "
                 "registry solver for remote solves\n";
    return 2;
  }

  const net::RemoteHandle handle = trace.has_cancels()
                                       ? client.load_trace(trace)
                                       : client.load(trace.base());
  const std::string origin = "  via " + host + ":" + std::to_string(port);
  return report_result(flags, trace, client.solve(handle, spec), origin,
                       nullptr);
}

int cmd_serve(const Flags& flags) {
  if (flags.has("listen")) return cmd_serve_listen(flags);
  if (!flags.has("specs")) {
    std::cerr << "error: serve needs --specs=FILE (batch mode, one solver "
                 "spec per line) or --listen=PORT (network mode)\n";
    return 2;
  }
  std::vector<SolverSpec> specs = load_specs(flags.get("specs", ""));
  // Batch-level default only: a spec that set its own deadline_ms keeps it.
  if (flags.has("deadline_ms"))
    for (SolverSpec& spec : specs)
      if (spec.options.deadline_ms == 0)
        spec.options.set("deadline_ms", flags.get("deadline_ms", ""));

  const EventTrace trace = load_or_generate(flags);
  Service service(service_config_from_flags(flags));
  const InstanceHandle handle = service.load(trace);

  // --tenants deals the batch's specs across the named tenants round-robin
  // in file order; without it everything goes through the default tenant,
  // which is byte-identical to the pre-tenant FIFO behavior.
  std::vector<TenantHandle> tenants;
  if (flags.has("tenants"))
    for (const TenantDef& def : load_tenant_defs(flags.get("tenants", "")))
      tenants.push_back(service.tenant(def.name, def.weight, def.max_queue));

  // --stats-every=N streams a compact busytime-metrics-v1 snapshot to
  // stderr after every N completed requests (one JSON document per line),
  // so a long batch is observable while it runs without disturbing the
  // stdout report.
  const std::int64_t stats_every = flags.get_int("stats-every", 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<SolveResult>> futures;
  futures.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    futures.push_back(service.submit(
        handle, specs[i],
        tenants.empty() ? nullptr : tenants[i % tenants.size()]));
  std::vector<SolveResult> results;
  results.reserve(futures.size());
  for (auto& future : futures) {
    results.push_back(future.get());
    if (stats_every > 0 &&
        results.size() % static_cast<std::size_t>(stats_every) == 0)
      std::cerr << service.metrics_snapshot().to_json().dump() << "\n";
  }
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  bool failed = false;
  Table table({"spec", "status", "cost", "ratio", "tput", "machines", "wall_ms",
               "valid"});
  json::Value out = json::Value::array();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SolveResult& result = results[i];
    warn_ignored(result);
    if (result.status == SolveStatus::kOk && !result.valid) failed = true;
    table.add_row({specs[i].to_string(), to_string(result.status),
                   Table::fmt(static_cast<long long>(result.cost)),
                   Table::fmt(result.ratio_to_lower_bound),
                   Table::fmt(result.throughput),
                   Table::fmt(static_cast<long long>(result.stats.machines_opened)),
                   Table::fmt(result.wall_ms),
                   result.status != SolveStatus::kOk ? "-"
                   : result.valid                    ? "yes"
                                                     : "NO"});
    out.push_back(result_to_json_value(result));
  }

  // The full registry snapshot (counters, latency histograms, pool
  // utilization gauges) taken once, after the batch drained; the service
  // summary below reads its counters.
  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  write_metrics_out(flags, snapshot);
  const auto count = [&snapshot](const char* name) {
    return static_cast<std::int64_t>(snapshot.counter_value(name));
  };
  if (flags.get_bool("json")) {
    json::Value root = json::Value::object();
    root.set("instance", trace_summary(trace));
    root.set("jobs", static_cast<std::int64_t>(trace.size()));
    root.set("g", trace.g());
    root.set("workers", service.workers());
    root.set("batch_ms", batch_ms);
    json::Value svc = json::Value::object();
    svc.set("requests", count(obs::metric::kServiceRequests));
    svc.set("ok", count(obs::metric::kServiceOk));
    svc.set("deadline_expired", count(obs::metric::kServiceDeadlineExpired));
    svc.set("cancelled", count(obs::metric::kServiceCancelled));
    svc.set("shed", count(obs::metric::kServiceShed));
    svc.set("cache_hits", count(obs::metric::kServiceCacheHits));
    svc.set("cache_misses", count(obs::metric::kServiceCacheMisses));
    svc.set("view_builds", count(obs::metric::kServiceViewBuilds));
    svc.set("view_hits", count(obs::metric::kServiceViewHits));
    root.set("service", std::move(svc));
    root.set("metrics", snapshot.to_json());
    root.set("results", std::move(out));
    std::cout << root.dump(2) << "\n";
  } else {
    std::cout << trace_summary(trace) << "\n";
    table.print(std::cout);
    std::cout << results.size() << " requests on " << service.workers()
              << " workers in " << Table::fmt(batch_ms)
              << " ms  (ok=" << count(obs::metric::kServiceOk)
              << " deadline=" << count(obs::metric::kServiceDeadlineExpired)
              << " shed=" << count(obs::metric::kServiceShed)
              << " cache_hits=" << count(obs::metric::kServiceCacheHits)
              << " view_builds=" << count(obs::metric::kServiceViewBuilds)
              << " view_hits=" << count(obs::metric::kServiceViewHits)
              << " utilization="
              << Table::fmt(service.pool_stats().utilization()) << ")\n";
  }
  if (failed) {
    std::cerr << "error: some solver produced an invalid schedule\n";
    return 1;
  }
  return 0;
}

/// One row of the diff report; regressions flip the exit code.
struct DiffRow {
  std::string field, a, b, note;
  bool regression = false;
};

json::Value load_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return json::Value::parse(buffer.str());
}

/// Fields whose values legitimately vary run to run (wall time, rates,
/// utilization, scheduling-dependent peaks) or machine to machine
/// (hardware_threads).  A key matching here — including whole subtrees like
/// the "_us" latency histograms and the pool "gauges" — is excluded from
/// the bench diff; everything else is a deterministic-by-construction
/// quantity the diff gates.
bool timing_only_field(const std::string& key) {
  static const char* const kSuffixes[] = {"_ms", "_us", "_ns", "_sec",
                                          "_per_sec", "_speedup"};
  for (const char* suffix : kSuffixes) {
    const std::size_t n = std::string(suffix).size();
    if (key.size() >= n && key.compare(key.size() - n, n, suffix) == 0)
      return true;
  }
  // "observed" subtrees hold scheduling-dependent counts (cache hit/miss
  // splits under concurrency, shed totals under overload) that the bench
  // reports for eyeballing but cannot promise run-to-run.
  return key == "speedup" || key == "utilization" ||
         key == "hardware_threads" || key == "queue_depth_peak" ||
         key == "gauges" || key == "smoke" || key == "observed";
}

/// Structural diff of two bench documents.  Recurses through objects and
/// arrays; numbers compare within `tol`, "identical" flips from true to
/// false are regressions, and any other deterministic mismatch (counter,
/// shard count, cost, missing field) regresses too.  Timing-only keys are
/// skipped and counted.
void diff_bench_value(const std::string& path, const json::Value& a,
                      const json::Value& b, double tol,
                      std::vector<DiffRow>& rows, std::size_t& ignored) {
  const auto leaf = [](const json::Value& v) {
    switch (v.type()) {
      case json::Value::Type::kNull: return std::string("null");
      case json::Value::Type::kBool: return std::string(v.as_bool() ? "true" : "false");
      case json::Value::Type::kInt: return std::to_string(v.as_int());
      case json::Value::Type::kDouble: return Table::fmt(v.as_double());
      case json::Value::Type::kString: return v.as_string();
      case json::Value::Type::kArray: return std::string("[array]");
      case json::Value::Type::kObject: return std::string("{object}");
    }
    return std::string("?");
  };
  if (a.type() == json::Value::Type::kObject &&
      b.type() == json::Value::Type::kObject) {
    for (const auto& [key, value] : a.as_object()) {
      if (timing_only_field(key)) {
        ++ignored;
        continue;
      }
      const std::string child = path.empty() ? key : path + "." + key;
      if (const json::Value* other = b.find(key)) {
        diff_bench_value(child, value, *other, tol, rows, ignored);
      } else {
        rows.push_back({child, leaf(value), "(missing)", "field lost", true});
      }
    }
    for (const auto& [key, value] : b.as_object())
      if (!timing_only_field(key) && a.find(key) == nullptr)
        rows.push_back({path.empty() ? key : path + "." + key, "(missing)",
                        leaf(value), "new field", false});
    return;
  }
  if (a.type() == json::Value::Type::kArray &&
      b.type() == json::Value::Type::kArray) {
    const auto& av = a.as_array();
    const auto& bv = b.as_array();
    if (av.size() != bv.size()) {
      rows.push_back({path + ".length", std::to_string(av.size()),
                      std::to_string(bv.size()), "element count changed", true});
      return;
    }
    for (std::size_t i = 0; i < av.size(); ++i)
      diff_bench_value(path + "[" + std::to_string(i) + "]", av[i], bv[i], tol,
                       rows, ignored);
    return;
  }
  if (a.type() == json::Value::Type::kBool &&
      b.type() == json::Value::Type::kBool) {
    if (a.as_bool() != b.as_bool()) {
      // identical true→false means the run stopped being deterministic —
      // the one flag the bench diff exists to catch.  false→true is an
      // improvement, reported but not fatal.
      const bool regressed = a.as_bool() && !b.as_bool();
      rows.push_back({path, leaf(a), leaf(b),
                      regressed ? "determinism lost" : "changed", regressed});
    }
    return;
  }
  if (a.is_number() && b.is_number()) {
    const double da = a.as_double();
    const double db = b.as_double();
    if (da < db - tol || da > db + tol)
      rows.push_back({path, leaf(a), leaf(b),
                      "deterministic value changed", true});
    return;
  }
  if (a.type() == json::Value::Type::kString &&
      b.type() == json::Value::Type::kString) {
    if (a.as_string() != b.as_string())
      rows.push_back({path, leaf(a), leaf(b), "changed", true});
    return;
  }
  if (a.type() != b.type())
    rows.push_back({path, leaf(a), leaf(b), "type changed", true});
}

/// Bench-mode diff: both inputs carry a "bench" key (BENCH_pipeline.json,
/// BENCH_service.json).  Exit 1 when a deterministic field differs.
int cmd_diff_bench(const std::string& file_a, const json::Value& a,
                   const std::string& file_b, const json::Value& b,
                   double tol) {
  std::vector<DiffRow> rows;
  std::size_t ignored = 0;
  diff_bench_value("", a, b, tol, rows, ignored);
  bool regressed = false;
  if (!rows.empty()) {
    Table table({"field", file_a, file_b, "note"});
    for (const DiffRow& row : rows) {
      regressed = regressed || row.regression;
      table.add_row({row.field, row.a, row.b,
                     row.regression ? "REGRESSION " + row.note : row.note});
    }
    table.print(std::cout);
  }
  std::cout << rows.size() << " differing field" << (rows.size() == 1 ? "" : "s")
            << ", " << ignored << " timing-only field"
            << (ignored == 1 ? "" : "s") << " ignored\n";
  if (regressed) {
    std::cerr << "error: " << file_b << " regresses " << file_a << "\n";
    return 1;
  }
  std::cout << "no regression\n";
  return 0;
}

int cmd_diff(const Flags& flags) {
  const auto& files = flags.positional();
  if (files.size() != 2) {
    std::cerr << "error: diff needs exactly two busytime-result-v1 or "
                 "BENCH json files\n";
    return 2;
  }
  const double tol = flags.get_double("tol", 1e-9);

  // BENCH_*.json documents (perf_pipeline / perf_service output) carry a
  // "bench" key; result files are busytime-result-v1.  Mixing the two is a
  // usage error, not a regression.
  const json::Value doc_a = load_json_file(files[0]);
  const json::Value doc_b = load_json_file(files[1]);
  const bool bench_a =
      doc_a.type() == json::Value::Type::kObject && doc_a.find("bench") != nullptr;
  const bool bench_b =
      doc_b.type() == json::Value::Type::kObject && doc_b.find("bench") != nullptr;
  if (bench_a != bench_b) {
    std::cerr << "error: cannot diff a bench document against a result "
                 "document\n";
    return 2;
  }
  if (bench_a) return cmd_diff_bench(files[0], doc_a, files[1], doc_b, tol);

  const SolveResult a = load_result_json(files[0]);
  const SolveResult b = load_result_json(files[1]);

  std::vector<DiffRow> rows;
  const auto num = [&](const std::string& field, double va, double vb,
                       bool worse_if_higher, bool is_regression_field) {
    DiffRow row;
    row.field = field;
    row.a = Table::fmt(va);
    row.b = Table::fmt(vb);
    const double delta = vb - va;
    if (delta != 0) row.note = (delta > 0 ? "+" : "") + Table::fmt(delta);
    const bool worse = worse_if_higher ? delta > tol : delta < -tol;
    row.regression = is_regression_field && worse;
    rows.push_back(std::move(row));
  };

  {
    DiffRow row{"solver", a.solver, b.solver, "", false};
    if (a.solver != b.solver) row.note = "DIFFERENT SOLVERS";
    rows.push_back(std::move(row));
  }
  {
    DiffRow row{"status", to_string(a.status), to_string(b.status), "", false};
    row.regression =
        a.status == SolveStatus::kOk && b.status != SolveStatus::kOk;
    if (row.regression) row.note = "request no longer completes";
    rows.push_back(std::move(row));
  }
  {
    DiffRow row{"valid", a.valid ? "yes" : "no", b.valid ? "yes" : "no", "", false};
    row.regression = a.valid && !b.valid;
    if (row.regression) row.note = "validity lost";
    rows.push_back(std::move(row));
  }
  num("cost", static_cast<double>(a.cost), static_cast<double>(b.cost),
      /*worse_if_higher=*/true, /*is_regression_field=*/true);
  num("throughput", static_cast<double>(a.throughput),
      static_cast<double>(b.throughput), /*worse_if_higher=*/false,
      /*is_regression_field=*/true);
  num("ratio_to_lower_bound", a.ratio_to_lower_bound, b.ratio_to_lower_bound,
      /*worse_if_higher=*/true, /*is_regression_field=*/true);
  num("lower_bound", a.bounds.lower_bound(), b.bounds.lower_bound(),
      /*worse_if_higher=*/false, /*is_regression_field=*/false);
  num("machines_opened", static_cast<double>(a.stats.machines_opened),
      static_cast<double>(b.stats.machines_opened), /*worse_if_higher=*/true,
      /*is_regression_field=*/false);
  num("peak_open_machines", static_cast<double>(a.stats.peak_open_machines),
      static_cast<double>(b.stats.peak_open_machines), /*worse_if_higher=*/true,
      /*is_regression_field=*/false);
  num("busy_time_refunded", static_cast<double>(a.stats.busy_time_refunded),
      static_cast<double>(b.stats.busy_time_refunded), /*worse_if_higher=*/true,
      /*is_regression_field=*/false);
  num("wall_ms", a.wall_ms, b.wall_ms, /*worse_if_higher=*/true,
      /*is_regression_field=*/false);

  bool regressed = false;
  Table table({"field", files[0], files[1], "note"});
  for (const DiffRow& row : rows) {
    regressed = regressed || row.regression;
    table.add_row({row.field, row.a, row.b,
                   row.regression ? "REGRESSION " + row.note : row.note});
  }
  table.print(std::cout);
  if (regressed) {
    std::cerr << "error: " << files[1] << " regresses " << files[0] << "\n";
    return 1;
  }
  std::cout << "no regression\n";
  return 0;
}

int cmd_gen(const Flags& flags) {
  const EventTrace trace = generate(flags);
  const std::string out = flags.get("out", "");
  if (out.empty()) {
    write_event_trace(std::cout, trace);
  } else {
    save_event_trace(out, trace);
    std::cout << "wrote " << trace_summary(trace) << " to " << out << "\n";
  }
  return 0;
}

int cmd_check(const Flags& flags) {
  const EventTrace trace = load_event_trace(flags.get("in", ""));
  const Instance& inst = trace.residual();
  const Schedule s = load_schedule(flags.get("schedule", ""), inst.size());
  if (const auto violation = find_violation(inst, s)) {
    std::cout << "INVALID: " << violation->to_string() << "\n";
    return 1;
  }
  std::cout << "valid; cost=" << s.cost(inst) << " throughput=" << s.throughput()
            << " machines=" << s.machine_count() << "\n";
  const CostBounds b = compute_bounds(inst);
  std::cout << "lower bound=" << b.lower_bound()
            << " ratio=" << ratio_to_lower_bound(inst, s.cost(inst)) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace busytime;
  const bool has_subcommand = argc >= 2 && argv[1][0] != '-';
  // With a subcommand, flags start after it; without one, "--list-solvers"
  // and "--solver/--in/--family" imply the command.
  const Flags flags = has_subcommand ? Flags(argc - 1, argv + 1) : Flags(argc, argv);
  // --threads governs every parallel path: per-component dispatch, sharded
  // online replay, and the --solver=all side-by-side runs.
  if (flags.has("threads"))
    exec::set_default_threads(static_cast<int>(flags.get_int("threads", 0)));
  std::string command = has_subcommand ? argv[1] : "";
  if (command.empty()) {
    if (flags.get_bool("list-solvers")) command = "list-solvers";
    else if (flags.get_bool("list-metrics")) command = "list-metrics";
    else if (flags.has("solver") || flags.has("in") || flags.has("family"))
      command = "solve";
  }
  try {
    if (command == "list-solvers") return cmd_list_solvers(flags);
    if (command == "list-metrics") return cmd_list_metrics(flags);
    if (command == "solve") return cmd_solve(flags);
    if (command == "serve") return cmd_serve(flags);
    if (command == "client") return cmd_client(flags);
    if (command == "diff") return cmd_diff(flags);
    if (command == "gen") return cmd_gen(flags);
    if (command == "check") return cmd_check(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
