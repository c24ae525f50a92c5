// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--corrupt]
//
// Sets the workload up five times (setup_s is the median, without the
// benchmark's own reference solves; the last set-up is the one measured),
// runs the closed loop for --seconds, and with --trace 1 runs the traced
// pass after it.  The host's parallel capacity is calibrated just before
// and just after the measured window.
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  A full report, and with --trace 1 the span tree, are
// written under .bench_build/perfbench/out in the working directory.  Exit
// status 1 when any response failed its check.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"
#include "io/json.hpp"
#include "layers.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using busytime::json::Value;

constexpr int kSetups = 5;
constexpr const char* kOutDir = ".bench_build/perfbench/out";

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = value() == "1";
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be positive");
  return o;
}

Value metrics_json(const std::vector<Metric>& metrics) {
  Value out = Value::object();
  for (const Metric& m : metrics) {
    Value v = Value::object();
    v.set("value", m.value);
    v.set("unit", m.unit);
    out.set(m.name, std::move(v));
  }
  return out;
}

void write_json(const std::string& path, const Value& value) {
  std::ofstream file(path);
  file << value.dump(2) << "\n";
  if (!file) throw std::runtime_error("cannot write " + path);
}

int run(const Options& o) {
  const int nproc = busytime::exec::hardware_threads();

  std::vector<double> setup_ms;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();  // free the previous set-up before building the next
    const double t0 = now_ms();
    w = make_workload(o);
    setup_ms.push_back(now_ms() - t0 - w->check_ms());
  }

  const double parallelism_before = calibrate_parallelism(nproc);
  const LoopResult loop = run_loop(*w, o.seconds);
  const double parallelism_after = calibrate_parallelism(nproc);
  const bool contended =
      std::min(parallelism_before, parallelism_after) < 0.8 * nproc;

  std::vector<double> latencies, wall_coverage;
  for (const Outcome& out : loop.outcomes) {
    latencies.push_back(out.latency_ms);
    if (out.ok && out.solve_ms > 0) wall_coverage.push_back(out.wall_ms / out.solve_ms);
  }
  // Timings are medians over the window's slices, so a stall of the host
  // that covers less than half the window does not move them.
  std::vector<double> slice_p50, slice_p95, slice_rate, slice_cpu;
  Value slices = Value::array();
  for (const Slice& s : loop.slices) {
    if (s.latency_ms.empty() || s.requests <= 0) continue;
    slice_p50.push_back(quantile(s.latency_ms, 0.50));
    slice_p95.push_back(quantile(s.latency_ms, 0.95));
    slice_rate.push_back(s.requests / s.seconds);
    slice_cpu.push_back(s.cpu_ms / s.requests);
    Value v = Value::object();
    v.set("requests", s.requests);
    v.set("latency_p50_ms", slice_p50.back());
    v.set("latency_p95_ms", slice_p95.back());
    v.set("req_per_s", slice_rate.back());
    v.set("cpu_ms_per_req", slice_cpu.back());
    slices.push_back(std::move(v));
  }
  const double attempted = static_cast<double>(std::max<std::uint64_t>(loop.attempted, 1));
  const std::vector<Metric> end_to_end = {
      {"latency_p50_ms", median(slice_p50), "ms"},
      {"latency_p95_ms", median(slice_p95), "ms"},
      {"req_per_s", median(slice_rate), "1/s"},
      {"cpu_ms_per_req", median(slice_cpu), "ms"},
      {"busy_time_ratio", w->busy_time_ratio(), "ratio"},
      {"ok_share", static_cast<double>(loop.attempted - loop.failed) / attempted, "share"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_ms) / 1e3, "s"},
  };

  std::vector<Metric> per_layer;
  busytime::obs::TraceContext rec;
  Value program_trace;
  if (o.trace) program_trace = traced_pass(*w, o.tiny, rec, per_layer);
  per_layer.push_back({"service.queue_wait_ms", loop.queue_wait_ms_mean, "ms"});
  per_layer.push_back({"exec.utilization", loop.pool_utilization, "ratio"});
  per_layer.push_back({"exec.steals", loop.pool_steals, "count"});
  per_layer.push_back({"api.wall_ms_coverage", median(wall_coverage), "ratio"});
  per_layer.push_back({"host.parallelism_before", parallelism_before, "threads"});
  per_layer.push_back({"host.parallelism_after", parallelism_after, "threads"});
  per_layer.push_back({"host.contended", contended ? 1.0 : 0.0, "flag"});

  std::filesystem::create_directories(kOutDir);
  const std::string stem = std::string(kOutDir) + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" + (o.trace ? "1" : "0");
  Value report = Value::object();
  report.set("workload", o.workload);
  report.set("seed", static_cast<std::int64_t>(o.seed));
  report.set("seconds", o.seconds);
  report.set("threads_requested", nproc);
  report.set("contended", contended);
  report.set("samples", static_cast<std::int64_t>(loop.attempted));
  Value by_kind = Value::object();
  for (std::size_t k = 0; k < w->kinds().size(); ++k) {
    std::vector<double> kind_ms;
    for (const Outcome& out : loop.outcomes)
      if (out.kind == k) kind_ms.push_back(out.latency_ms);
    by_kind.set(w->kinds()[k].label, median(kind_ms));
  }
  report.set("latency_p50_ms_by_kind", std::move(by_kind));
  report.set("latency_p50_ms_all", quantile(latencies, 0.50));
  report.set("latency_p95_ms_all", quantile(latencies, 0.95));
  report.set("req_per_s_all", static_cast<double>(loop.attempted) / loop.wall_s);
  report.set("cpu_ms_per_req_all", loop.cpu_ms / attempted);
  report.set("slices", std::move(slices));
  report.set("end_to_end", metrics_json(end_to_end));
  report.set("per_layer", metrics_json(per_layer));
  write_json(stem + ".json", report);
  if (o.trace) {
    Value spans = spans_json(rec);
    spans.set("workload", o.workload);
    spans.set("seed", static_cast<std::int64_t>(o.seed));
    spans.set("program_trace", std::move(program_trace));
    write_json(stem + "-spans.json", spans);
  }

  std::cout << "workload " << o.workload << " seed " << o.seed << ": "
            << loop.attempted << " requests in " << loop.wall_s << " s, "
            << loop.failed << " failed; host capacity " << parallelism_before
            << " -> " << parallelism_after << " of " << nproc << " threads"
            << (contended ? " (contended)" : "") << "\n";
  std::cout << "report: " << stem << ".json\n";

  Value result = Value::object();
  result.set("correct", loop.failed == 0);
  result.set("attempted", static_cast<std::int64_t>(loop.attempted));
  result.set("failed", static_cast<std::int64_t>(loop.failed));
  result.set("metrics", metrics_json(o.trace ? per_layer : end_to_end));
  std::cout << result.dump() << std::endl;
  return loop.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
