// Plumbing shared by the benchmark program: clocks and process counters,
// the host-capacity calibration, the correctness gate, and self times of
// the spans the traced pass records.
#pragma once

#include <cstdint>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "io/json.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Steady-clock milliseconds since an arbitrary epoch.
double now_ms();
/// CPU time consumed by every thread of this process, in milliseconds.
double process_cpu_ms();
/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Effective parallel capacity of the host right now: the work rate of
/// `threads` concurrent spin loops over the rate of one.  Reads `threads`
/// on an idle machine and less when other tenants hold cores.  Takes
/// about 0.8 s.
double calibrate_parallelism(int threads);

/// Bit-for-bit equality of two results, wall_ms excluded: status, solver,
/// cost, assignment, bounds, ratio, validity, throughput, component trace,
/// engine stats, ignored options and the cached flag.
bool same_result(const busytime::SolveResult& a, const busytime::SolveResult& b);

/// The Observation 2.1 sandwich plus validity.  A full MinBusy schedule
/// must satisfy cost * g >= max(span * g, len) and cost <= len; a
/// MaxThroughput result (spec with a budget) must stay within its budget.
bool sandwich_ok(const busytime::SolveResult& r, const busytime::SolverSpec& spec,
                 std::size_t jobs);

/// Self time of each span: its duration minus the part of it its children
/// cover.  Indexed like `spans` (span id - 1).
std::vector<double> self_ms(const std::vector<busytime::obs::SpanRecord>& spans);

/// The busytime-trace-v1 document of `trace` plus each span's self time
/// ("self_ms", by span id - 1) and the self time summed per span name.
busytime::json::Value spans_json(const busytime::obs::TraceContext& trace);

}  // namespace perfbench
