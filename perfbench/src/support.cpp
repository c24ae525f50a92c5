#include "support.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <map>
#include <thread>

namespace perfbench {

using busytime::SolveResult;
using busytime::SolverSpec;
namespace json = busytime::json;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// A dependent multiply-add chain: pure ALU work that neither memory
/// bandwidth nor the compiler can shortcut.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t x) {
  for (std::uint64_t i = 0; i < iterations; ++i)
    x = x * 6364136223846793005ull + 1442695040888963407ull;
  return x;
}

/// Runs `threads` spin loops for `total_ms` and returns the chunks of work
/// per millisecond they completed together during the last `window_ms`.
/// Only the tail is counted: threads start on their creator's CPU, and
/// the scheduler may take a few hundred milliseconds to spread them.
double spin_rate(int threads, double total_ms, double window_ms) {
  constexpr std::uint64_t kChunk = 50'000;  // ~60 us of work
  const double start = now_ms();
  const double window_start = start + total_ms - window_ms;
  std::vector<std::uint64_t> chunks(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&chunks, t, start, total_ms, window_start] {
      std::uint64_t x = static_cast<std::uint64_t>(t) + 1;
      std::uint64_t counted = 0;
      for (double now = now_ms(); now < start + total_ms; now = now_ms()) {
        x = spin(kChunk, x);
        if (now >= window_start) ++counted;
      }
      // Folding x in keeps the loop observable.
      chunks[static_cast<std::size_t>(t)] = counted + (x == 42 ? 1 : 0);
    });
  for (std::thread& th : pool) th.join();
  std::uint64_t total = 0;
  for (std::uint64_t c : chunks) total += c;
  return static_cast<double>(total) / window_ms;
}

}  // namespace

double calibrate_parallelism(int threads) {
  const double one = spin_rate(1, 200, 100);
  const double all = spin_rate(threads, 600, 200);
  return one <= 0 ? 0 : all / one;
}

bool same_result(const SolveResult& a, const SolveResult& b) {
  return a.solver == b.solver && a.status == b.status && a.cost == b.cost &&
         a.schedule.assignment() == b.schedule.assignment() &&
         a.throughput == b.throughput && a.bounds.length == b.bounds.length &&
         a.bounds.span == b.bounds.span &&
         a.bounds.parallelism_num == b.bounds.parallelism_num &&
         a.bounds.g == b.bounds.g &&
         a.ratio_to_lower_bound == b.ratio_to_lower_bound && a.valid == b.valid &&
         a.trace == b.trace && a.stats == b.stats &&
         a.ignored_options == b.ignored_options && a.cached == b.cached;
}

bool sandwich_ok(const SolveResult& r, const SolverSpec& spec, std::size_t jobs) {
  if (r.status != busytime::SolveStatus::kOk || !r.valid) return false;
  if (spec.options.budget >= 0) return r.cost <= spec.options.budget;
  const std::int64_t cost_times_g = static_cast<std::int64_t>(r.cost) * r.bounds.g;
  return static_cast<std::size_t>(r.throughput) == jobs &&
         cost_times_g >= r.bounds.lower_bound_times_g() && r.cost <= r.bounds.length;
}

std::vector<double> self_ms(const std::vector<busytime::obs::SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const busytime::obs::SpanRecord& s : spans)
    if (s.parent != 0)
      children[s.parent - 1].emplace_back(s.start_ms, s.start_ms + s.duration_ms);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    const double begin = spans[i].start_ms;
    const double end = begin + spans[i].duration_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = begin;
    for (const auto& [kid_start, kid_end] : kids) {
      const double lo = std::max(kid_start, reach);
      const double hi = std::min(kid_end, end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].duration_ms - covered;
  }
  return self;
}

json::Value spans_json(const busytime::obs::TraceContext& trace) {
  const std::vector<busytime::obs::SpanRecord> spans = trace.spans();
  const std::vector<double> self = self_ms(spans);
  json::Value per_span = json::Value::array();
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    per_span.push_back(self[i]);
    by_name[spans[i].name] += self[i];
  }
  json::Value totals = json::Value::object();
  for (const auto& [name, ms] : by_name) totals.set(name, ms);
  json::Value root = trace.to_json();
  root.set("self_ms", std::move(per_span));
  root.set("self_ms_by_name", std::move(totals));
  return root;
}

}  // namespace perfbench
