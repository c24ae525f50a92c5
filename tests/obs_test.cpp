// Observability layer (src/obs/): the sharded MetricsRegistry must give
// every catalog row a cell of its own and count exactly (lock-free stripes
// merge to the true totals, even under 8-thread contention), metrics must
// land only in the registry a request carries, TraceContext must record a
// well-formed span tree, the
// ThreadPool accounting must match the tasks actually run, and — the
// determinism contract extended to instrumentation — a pinned instance
// solved through Service::submit must produce identical deterministic
// metric counts at every worker count, with the request span tree covering
// the measured request wall time.  The Obs* suites are ThreadSanitizer CI
// targets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/dispatch.hpp"
#include "api/registry.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "online/stream_driver.hpp"
#include "service/service.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

Instance test_trace(int n = 150, std::uint64_t seed = 7) {
  TraceParams p;
  p.n = n;
  p.g = 3;
  p.arrival_rate = 0.4;
  p.diurnal = true;
  p.seed = seed;
  return gen_trace(p);
}

// ------------------------------------------------------- metrics registry ---

TEST(ObsMetrics, CounterAndGaugeSemantics) {
  obs::MetricsRegistry reg;
  reg.add<obs::metric::kSolveRequests>();
  reg.add<obs::metric::kSolveRequests>(41);
  reg.set<obs::metric::kNetInflight>(7);
  reg.set<obs::metric::kNetInflight>(-3);  // a gauge holds the last value set
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kSolveRequests), 42u);
  EXPECT_EQ(snap.gauge_value(obs::metric::kNetInflight), -3);
  // The neighbouring catalog rows keep their own cells.
  EXPECT_EQ(snap.counter_value(obs::metric::kSolveJobsDispatched), 0u);
  EXPECT_EQ(snap.counter_value(obs::metric::kSolveViewBuildsInline), 0u);
  EXPECT_EQ(snap.counter_value(obs::metric::kNetFramesOut), 0u);
  EXPECT_EQ(snap.gauge_value(obs::metric::kServiceTenantQueueDepth), 0);
  // Unknown names, and names of another kind, read as zero / null.
  EXPECT_EQ(snap.counter_value("test.absent"), 0u);
  EXPECT_EQ(snap.gauge_value("test.absent"), 0);
  EXPECT_EQ(snap.histogram("test.absent"), nullptr);
  EXPECT_EQ(snap.counter_value(obs::metric::kNetInflight), 0u);
  EXPECT_EQ(snap.histogram(obs::metric::kSolveRequests), nullptr);
}

TEST(ObsMetrics, HistogramBucketsCountSumMax) {
  obs::MetricsRegistry reg;
  reg.record<obs::metric::kSolveComponentJobs>(0);    // bucket 0: zero values
  reg.record<obs::metric::kSolveComponentJobs>(1);    // bucket 1: [1, 2)
  reg.record<obs::metric::kSolveComponentJobs>(1);
  reg.record<obs::metric::kSolveComponentJobs>(6);    // bucket 3: [4, 8)
  reg.record<obs::metric::kSolveComponentJobs>(300);  // bucket 9: [256, 512)
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramSnapshot* hist =
      snap.histogram(obs::metric::kSolveComponentJobs);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 5u);
  EXPECT_EQ(hist->sum, 308u);
  EXPECT_EQ(hist->max, 300u);
  EXPECT_DOUBLE_EQ(hist->mean(), 308.0 / 5.0);
  ASSERT_EQ(hist->buckets.size(), obs::kHistogramBuckets);
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 2u);
  EXPECT_EQ(hist->buckets[3], 1u);
  EXPECT_EQ(hist->buckets[9], 1u);

  // Both ends of every power-of-two bucket, then the overflow bucket: it
  // takes everything from 2^(kHistogramBuckets - 2) up.
  constexpr std::size_t kLast = obs::kHistogramBuckets - 1;
  for (std::size_t i = 1; i < kLast; ++i) {
    reg.record<obs::metric::kOnlineShardJobs>(std::uint64_t{1} << (i - 1));
    reg.record<obs::metric::kOnlineShardJobs>((std::uint64_t{1} << i) - 1);
  }
  reg.record<obs::metric::kOnlineShardJobs>(std::uint64_t{1} << (kLast - 1));
  reg.record<obs::metric::kOnlineShardJobs>(std::uint64_t{1} << 63);
  reg.record<obs::metric::kOnlineShardJobs>(~std::uint64_t{0});
  const obs::MetricsSnapshot edge_snap = reg.snapshot();
  const obs::HistogramSnapshot* edges =
      edge_snap.histogram(obs::metric::kOnlineShardJobs);
  ASSERT_NE(edges, nullptr);
  EXPECT_EQ(edges->buckets[0], 0u);
  for (std::size_t i = 1; i < kLast; ++i)
    EXPECT_EQ(edges->buckets[i], 2u) << "bucket " << i;
  EXPECT_EQ(edges->buckets[kLast], 3u);
  EXPECT_EQ(edges->max, ~std::uint64_t{0});
  // The first histogram is untouched by the second one's writes.
  EXPECT_EQ(edge_snap.histogram(obs::metric::kSolveComponentJobs)->count, 5u);
}

TEST(ObsMetrics, PreregistersBuiltinCatalogAtZero) {
  // The catalog is sorted by name without duplicates, so a snapshot, which
  // lists each kind's rows in catalog order, is in name order too.
  for (std::size_t i = 1; i < std::size(obs::kMetricCatalog); ++i)
    EXPECT_LT(std::string(obs::kMetricCatalog[i - 1].name),
              obs::kMetricCatalog[i].name);

  std::vector<std::string> counters, gauges, histograms;
  for (const obs::MetricDef& def : obs::kMetricCatalog) {
    switch (def.kind) {
      case obs::MetricKind::kCounter: counters.push_back(def.name); break;
      case obs::MetricKind::kGauge: gauges.push_back(def.name); break;
      case obs::MetricKind::kHistogram: histograms.push_back(def.name); break;
    }
  }

  const obs::MetricsSnapshot snap = obs::MetricsRegistry().snapshot();
  std::vector<std::string> snap_counters, snap_gauges, snap_histograms;
  for (const auto& [name, value] : snap.counters) {
    snap_counters.push_back(name);
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    snap_gauges.push_back(name);
    EXPECT_EQ(value, 0) << name;
  }
  for (const auto& [name, h] : snap.histograms) {
    snap_histograms.push_back(name);
    EXPECT_EQ(h.count, 0u) << name;
    EXPECT_EQ(h.sum, 0u) << name;
    EXPECT_EQ(h.max, 0u) << name;
    EXPECT_EQ(h.buckets,
              std::vector<std::uint64_t>(obs::kHistogramBuckets, 0))
        << name;
  }
  EXPECT_EQ(snap_counters, counters);
  EXPECT_EQ(snap_gauges, gauges);
  EXPECT_EQ(snap_histograms, histograms);
}

/// Writes Row + 1 into catalog row Row's metric, through the write of the
/// row's own kind.
template <std::size_t Row>
void write_row(obs::MetricsRegistry& reg) {
  constexpr obs::MetricDef def = obs::kMetricCatalog[Row];
  if constexpr (def.kind == obs::MetricKind::kCounter)
    reg.add<def.name>(Row + 1);
  else if constexpr (def.kind == obs::MetricKind::kGauge)
    reg.set<def.name>(static_cast<std::int64_t>(Row + 1));
  else
    reg.record<def.name>(Row + 1);
}

template <std::size_t... Rows>
void write_rows(obs::MetricsRegistry& reg, std::index_sequence<Rows...>) {
  (write_row<Rows>(reg), ...);
}

// The compile-time lookup gives every catalog row a cell of its own.
TEST(ObsMetrics, EveryCatalogRowHasItsOwnCell) {
  obs::MetricsRegistry reg;
  write_rows(reg, std::make_index_sequence<std::size(obs::kMetricCatalog)>());
  const obs::MetricsSnapshot snap = reg.snapshot();
  for (std::size_t row = 0; row < std::size(obs::kMetricCatalog); ++row) {
    const obs::MetricDef& def = obs::kMetricCatalog[row];
    switch (def.kind) {
      case obs::MetricKind::kCounter:
        EXPECT_EQ(snap.counter_value(def.name), row + 1) << def.name;
        break;
      case obs::MetricKind::kGauge:
        EXPECT_EQ(snap.gauge_value(def.name),
                  static_cast<std::int64_t>(row + 1))
            << def.name;
        break;
      case obs::MetricKind::kHistogram: {
        const obs::HistogramSnapshot* h = snap.histogram(def.name);
        ASSERT_NE(h, nullptr) << def.name;
        EXPECT_EQ(h->count, 1u) << def.name;
        EXPECT_EQ(h->sum, row + 1) << def.name;
        break;
      }
    }
  }
}

TEST(ObsMetrics, SnapshotJsonIsMetricsV1) {
  obs::MetricsRegistry reg;
  reg.add<obs::metric::kSolveRequests>();
  reg.record<obs::metric::kServiceRequestUs>(123);
  const json::Value doc = reg.snapshot().to_json();
  EXPECT_EQ(doc.at("format").as_string(), "busytime-metrics-v1");
  EXPECT_EQ(doc.at("counters").at(obs::metric::kSolveRequests).as_int(), 1);
  const json::Value& hist = doc.at("histograms").at(obs::metric::kServiceRequestUs);
  EXPECT_EQ(hist.at("count").as_int(), 1);
  EXPECT_EQ(hist.at("sum").as_int(), 123);
  EXPECT_EQ(hist.at("buckets").as_array().size(), obs::kHistogramBuckets);
  EXPECT_EQ(doc.at("counters").as_object().size() +
                doc.at("gauges").as_object().size() +
                doc.at("histograms").as_object().size(),
            std::size(obs::kMetricCatalog));
}

// The lock-free striped write path must lose no update: 8 writers hammer
// one counter and one histogram, and the merged snapshot is exact.
TEST(ObsMetrics, StressParallelWritesMergeExactly) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 20000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        reg.add<obs::metric::kSolveRequests>();
        reg.record<obs::metric::kSolveComponentJobs>(
            static_cast<std::uint64_t>(t));
      }
    });
  for (std::thread& w : writers) w.join();
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kSolveRequests),
            static_cast<std::uint64_t>(kThreads) * kOps);
  const obs::HistogramSnapshot* h =
      snap.histogram(obs::metric::kSolveComponentJobs);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(h->max, 7u);
}

// Metrics land only in the registry a request's context carries: a direct
// call records nothing, and neither does the dispatcher that epoch_hybrid
// runs on each batch without a context.
TEST(ObsMetrics, WritesLandOnlyInARequestsRegistry) {
  const Instance inst = test_trace(400);
  Service service(ServiceConfig{2});
  const std::string fresh = service.metrics().snapshot().to_json().dump();
  solve_minbusy_auto(inst, 2);
  replay_stream(inst, OnlinePolicy::kFirstFit, PolicyParams{},
                /*threads=*/4, /*min_shard_jobs=*/1);
  EXPECT_EQ(service.metrics().snapshot().to_json().dump(), fresh);

  const InstanceHandle handle = service.load(inst);
  const obs::MetricsSnapshot before = service.metrics().snapshot();
  const SolveResult result =
      service.submit(handle, SolverSpec::parse("epoch_hybrid")).get();
  ASSERT_EQ(result.status, SolveStatus::kOk);
  // epoch_hybrid places every arrival from a batch dispatch.
  EXPECT_EQ(result.stats.jobs_assigned, static_cast<std::int64_t>(inst.size()));
  const obs::MetricsSnapshot after = service.metrics().snapshot();
  const auto moved = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };
  EXPECT_EQ(moved(obs::metric::kSolveRequests), 1u);
  EXPECT_EQ(moved(obs::metric::kOnlineReplays), 1u);
  EXPECT_EQ(moved(obs::metric::kOnlineJobsReplayed), inst.size());
  EXPECT_EQ(moved(obs::metric::kSolveDispatchRuns), 0u);
  EXPECT_EQ(moved(obs::metric::kSolveComponentsSolved), 0u);
  EXPECT_EQ(moved(obs::metric::kSolveJobsDispatched), 0u);
  EXPECT_EQ(moved(obs::metric::kSolveViewBuildsInline), 0u);
  EXPECT_EQ(after.histogram(obs::metric::kSolveComponentJobs)->count, 0u);
}

// ------------------------------------------------------------ trace spans ---

TEST(ObsTrace, SpanTreeNestingAndRetroactiveAdd) {
  obs::TraceContext trace;
  const std::uint32_t root = trace.open("request");
  const std::uint32_t child = trace.open("solve", root, 3);
  const auto a = std::chrono::steady_clock::now();
  const auto b = a + std::chrono::milliseconds(5);
  const std::uint32_t retro = trace.add("queue_wait", root, a, b, 1);
  trace.close(child);
  trace.close(root);

  const std::vector<obs::SpanRecord> spans = trace.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "request");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_GE(spans[0].duration_ms, 0.0);
  EXPECT_EQ(spans[1].name, "solve");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].value, 3);
  EXPECT_EQ(spans[2].id, retro);
  EXPECT_NEAR(spans[2].duration_ms, 5.0, 0.5);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(ObsTrace, JsonIsTraceV1) {
  obs::TraceContext trace;
  const std::uint32_t root = trace.open("request");
  trace.close(root);
  const json::Value doc = trace.to_json();
  EXPECT_EQ(doc.at("format").as_string(), "busytime-trace-v1");
  EXPECT_EQ(doc.at("dropped").as_int(), 0);
  const auto& spans = doc.at("spans").as_array();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].at("name").as_string(), "request");
  EXPECT_EQ(spans[0].at("id").as_int(), 1);
  EXPECT_EQ(spans[0].at("parent").as_int(), 0);
  EXPECT_GE(spans[0].at("duration_ms").as_double(), 0.0);
}

TEST(ObsTrace, TextRenderingIndentsChildren) {
  obs::TraceContext trace;
  const std::uint32_t root = trace.open("request");
  const std::uint32_t solve = trace.open("solve", root);
  trace.open("dispatch", solve, 4);
  const std::string text = trace.to_text();
  EXPECT_NE(text.find("request"), std::string::npos);
  EXPECT_NE(text.find("\n  solve"), std::string::npos);
  EXPECT_NE(text.find("\n    dispatch"), std::string::npos);
  EXPECT_NE(text.find("value=4"), std::string::npos);
  EXPECT_NE(text.find("(open)"), std::string::npos);  // never closed
}

TEST(ObsTrace, AnchorGuidesScopedSpans) {
  obs::TraceContext trace;
  const std::uint32_t solve = trace.open("solve");
  trace.set_anchor(solve);
  EXPECT_EQ(trace.anchor(), solve);
  {
    const obs::ScopedSpan span(&trace, "dispatch", trace.anchor());
    EXPECT_NE(span.id(), 0u);
    span.set_value(9);
  }
  trace.set_anchor(0);
  const std::vector<obs::SpanRecord> spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, solve);
  EXPECT_EQ(spans[1].value, 9);
  EXPECT_GE(spans[1].duration_ms, 0.0);  // ScopedSpan closed it

  // Null-context ScopedSpan is inert.
  const obs::ScopedSpan inert(nullptr, "nothing");
  EXPECT_EQ(inert.id(), 0u);
}

TEST(ObsTrace, CapDropsAndCounts) {
  obs::TraceContext trace;
  for (std::size_t i = 0; i < obs::TraceContext::kMaxSpans; ++i)
    ASSERT_NE(trace.open("s"), 0u);
  EXPECT_EQ(trace.open("past-cap"), 0u);
  EXPECT_EQ(trace.dropped(), 1u);
  EXPECT_EQ(trace.spans().size(), obs::TraceContext::kMaxSpans);
}

// TSan target: concurrent span recording from pool-style writers.
TEST(ObsTrace, StressParallelSpanRecording) {
  obs::TraceContext trace;
  const std::uint32_t root = trace.open("request");
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < kSpans; ++i) {
        const obs::ScopedSpan span(&trace, "component:x", root, i);
        (void)span;
      }
    });
  for (std::thread& w : writers) w.join();
  trace.close(root);
  EXPECT_EQ(trace.spans().size(), 1u + kThreads * kSpans);
  EXPECT_EQ(trace.dropped(), 0u);
}

// -------------------------------------------------------- pool accounting ---

TEST(ObsPool, StatsCountTasksExactly) {
  exec::ThreadPool pool(2);
  constexpr int kTasks = 64;
  std::atomic<int> done{0};
  for (int i = 0; i < kTasks; ++i)
    pool.submit([&done] {
      done.fetch_add(1, std::memory_order_relaxed);
    });
  while (done.load(std::memory_order_relaxed) < kTasks)
    std::this_thread::yield();
  const exec::PoolStats stats = pool.stats();
  EXPECT_EQ(stats.workers, 2);
  EXPECT_EQ(stats.tasks_submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.tasks_executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(stats.queue_depth_peak, 1u);
  EXPECT_GE(stats.queue_wait_ns_total, stats.queue_wait_ns_max);
  ASSERT_EQ(stats.worker_busy_ns.size(), 2u);
  ASSERT_EQ(stats.worker_idle_ns.size(), 2u);
  std::uint64_t busy = 0;
  for (const std::uint64_t b : stats.worker_busy_ns) busy += b;
  EXPECT_EQ(stats.busy_ns_total, busy);
  const double util = stats.utilization();
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.0);
}

TEST(ObsPool, PublishPoolStatsFillsExecGauges) {
  exec::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i)
    pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  while (done.load(std::memory_order_relaxed) < 8) std::this_thread::yield();
  obs::MetricsRegistry reg;
  obs::publish_pool_stats(pool.stats(), reg);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.gauge_value(obs::metric::kExecWorkers), 2);
  EXPECT_EQ(snap.gauge_value(obs::metric::kExecTasksSubmitted), 8);
  EXPECT_EQ(snap.gauge_value(obs::metric::kExecTasksExecuted), 8);
  EXPECT_GE(snap.gauge_value(obs::metric::kExecQueueDepthPeak), 1);
}

// ----------------------------------------- request-scoped, deterministic ---

/// Deterministic counters after a fixed request sequence (3x auto + 1x
/// online_first_fit against one warm handle), keyed for comparison across
/// Service worker counts.
std::vector<std::pair<std::string, std::uint64_t>> deterministic_counts(
    const obs::MetricsSnapshot& snap) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const char* name :
       {obs::metric::kServiceRequests, obs::metric::kServiceCompleted,
        obs::metric::kServiceOk, obs::metric::kServiceHandlesLoaded,
        obs::metric::kServiceViewBuilds, obs::metric::kServiceViewHits,
        obs::metric::kSolveRequests, obs::metric::kSolveDispatchRuns,
        obs::metric::kSolveComponentsSolved, obs::metric::kSolveJobsDispatched,
        obs::metric::kOnlineReplays, obs::metric::kOnlineShardsRun,
        obs::metric::kOnlineJobsReplayed})
    out.emplace_back(name, snap.counter_value(name));
  return out;
}

TEST(ObsService, DeterministicCountsAcrossWorkerCounts) {
  const Instance inst = test_trace(400);
  const std::size_t components = solve_minbusy_auto(inst, 1).names.size();

  std::vector<std::vector<std::pair<std::string, std::uint64_t>>> per_workers;
  for (const int workers : {1, 2, 8}) {
    Service service(ServiceConfig{workers});
    const InstanceHandle handle = service.load(inst);
    for (const char* name :
         {"auto", "auto", "auto", "online_first_fit"}) {
      const SolveResult result =
          service.submit(handle, SolverSpec::parse(name)).get();
      EXPECT_EQ(result.status, SolveStatus::kOk);
    }
    const obs::MetricsSnapshot snap = service.metrics_snapshot();

    // Absolute expectations: what 3 warm autos + 1 online replay must count.
    EXPECT_EQ(snap.counter_value(obs::metric::kServiceRequests), 4u);
    EXPECT_EQ(snap.counter_value(obs::metric::kServiceOk), 4u);
    EXPECT_EQ(snap.counter_value(obs::metric::kServiceViewBuilds), 1u);
    EXPECT_EQ(snap.counter_value(obs::metric::kServiceViewHits), 2u);
    EXPECT_EQ(snap.counter_value(obs::metric::kSolveDispatchRuns), 3u);
    EXPECT_EQ(snap.counter_value(obs::metric::kSolveComponentsSolved),
              3u * components);
    EXPECT_EQ(snap.counter_value(obs::metric::kSolveJobsDispatched),
              3u * inst.size());
    EXPECT_EQ(snap.counter_value(obs::metric::kOnlineReplays), 1u);
    EXPECT_EQ(snap.counter_value(obs::metric::kOnlineShardsRun), 1u);
    EXPECT_EQ(snap.counter_value(obs::metric::kOnlineJobsReplayed),
              inst.size());
    const obs::HistogramSnapshot* jobs =
        snap.histogram(obs::metric::kSolveComponentJobs);
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->count, 3u * components);
    EXPECT_EQ(jobs->sum, 3u * inst.size());

    per_workers.push_back(deterministic_counts(snap));
  }
  // The determinism contract, extended to instrumentation: identical
  // deterministic counts at 1, 2, and 8 workers.
  EXPECT_EQ(per_workers[0], per_workers[1]);
  EXPECT_EQ(per_workers[0], per_workers[2]);
}

TEST(ObsService, RequestSpanTreeCoversMeasuredWall) {
  const Instance inst = test_trace(3000);
  Service service(ServiceConfig{2});
  const InstanceHandle handle = service.load(inst);

  SolverSpec spec = SolverSpec::parse("auto");
  const auto trace_ctx = std::make_shared<obs::TraceContext>();
  spec.trace = trace_ctx;
  // Ready is the instant the Service hands the result over, taken inside
  // the completion callback: the waiting thread's wake-up latency is the
  // host scheduler's, not the request's.
  std::promise<std::chrono::steady_clock::time_point> ready;
  SolveResult result;
  const auto t0 = std::chrono::steady_clock::now();
  service.submit(handle, spec,
                 [&ready, &result](SolveResult r, std::exception_ptr) {
                   result = std::move(r);
                   ready.set_value(std::chrono::steady_clock::now());
                 });
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             ready.get_future().get() - t0)
                             .count();
  EXPECT_EQ(result.status, SolveStatus::kOk);

  const std::vector<obs::SpanRecord> spans = trace_ctx->spans();
  ASSERT_FALSE(spans.empty());
  const obs::SpanRecord& root = spans.front();
  EXPECT_EQ(root.name, "request");
  EXPECT_EQ(root.parent, 0u);
  ASSERT_GT(root.duration_ms, 0.0);
  // The root span opens at submit entry and closes when the result is
  // recorded, so it must cover ≥95% of the measured submit-to-ready wall.
  EXPECT_GE(root.duration_ms, 0.95 * wall_ms)
      << "request span " << root.duration_ms << "ms of " << wall_ms << "ms";

  // Expected taxonomy for a warm auto request, all parents well-formed.
  bool saw_queue_wait = false, saw_solve = false, saw_dispatch = false,
       saw_component = false, saw_merge = false, saw_finalize = false;
  std::uint32_t solve_id = 0;
  for (const obs::SpanRecord& span : spans) {
    EXPECT_GE(span.duration_ms, 0.0) << span.name << " left open";
    if (span.parent != 0) {
      EXPECT_LT(span.parent, span.id) << span.name << " parents forward";
    }
    if (span.name == "queue_wait") {
      saw_queue_wait = true;
      EXPECT_EQ(span.parent, root.id);
    } else if (span.name == "solve") {
      saw_solve = true;
      solve_id = span.id;
      EXPECT_EQ(span.parent, root.id);
    } else if (span.name == "dispatch") {
      saw_dispatch = true;
      EXPECT_EQ(span.parent, solve_id);
    } else if (span.name.rfind("component:", 0) == 0) {
      saw_component = true;
      EXPECT_GT(span.value, 0);  // jobs in the component
    } else if (span.name == "merge") {
      saw_merge = true;
    } else if (span.name == "finalize") {
      saw_finalize = true;
      EXPECT_EQ(span.parent, solve_id);
    }
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_solve);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_component);
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_finalize);
}

TEST(ObsService, ShardedReplayRecordsShardCountersAndSpans) {
  const Instance inst = test_trace(2000);
  obs::MetricsRegistry reg;
  RequestContext ctx;
  ctx.metrics = &reg;
  const auto trace_ctx = std::make_shared<obs::TraceContext>();
  ctx.trace = trace_ctx;

  const ReplayResult r =
      replay_stream(inst, OnlinePolicy::kFirstFit, PolicyParams{},
                    /*threads=*/4, /*min_shard_jobs=*/1, &ctx);
  ASSERT_GT(r.shards, 1u) << "instance did not shard; counters untested";

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kOnlineReplays), 1u);
  EXPECT_EQ(snap.counter_value(obs::metric::kOnlineShardsRun), r.shards);
  EXPECT_EQ(snap.counter_value(obs::metric::kOnlineJobsReplayed), inst.size());
  // Every arrival replays in exactly one shard.
  const obs::HistogramSnapshot* shard_jobs =
      snap.histogram(obs::metric::kOnlineShardJobs);
  ASSERT_NE(shard_jobs, nullptr);
  EXPECT_EQ(shard_jobs->count, r.shards);
  EXPECT_EQ(shard_jobs->sum, inst.size());

  std::size_t replay_spans = 0, shard_spans = 0, merge_spans = 0;
  std::uint32_t replay_id = 0;
  for (const obs::SpanRecord& span : trace_ctx->spans()) {
    if (span.name == "replay") {
      ++replay_spans;
      replay_id = span.id;
      EXPECT_EQ(span.value, static_cast<std::int64_t>(r.shards));
    } else if (span.name == "shard") {
      ++shard_spans;
      EXPECT_EQ(span.parent, replay_id);
    } else if (span.name == "replay_merge") {
      ++merge_spans;
    }
  }
  EXPECT_EQ(replay_spans, 1u);
  EXPECT_EQ(shard_spans, r.shards);
  EXPECT_EQ(merge_spans, 1u);

  // Same replay on a fresh registry: deterministic counters reproduce.
  obs::MetricsRegistry reg2;
  RequestContext ctx2;
  ctx2.metrics = &reg2;
  replay_stream(inst, OnlinePolicy::kFirstFit, PolicyParams{},
                /*threads=*/4, /*min_shard_jobs=*/1, &ctx2);
  const obs::MetricsSnapshot snap2 = reg2.snapshot();
  EXPECT_EQ(snap2.counter_value(obs::metric::kOnlineShardsRun), r.shards);
  EXPECT_EQ(snap2.counter_value(obs::metric::kOnlineJobsReplayed),
            inst.size());
}

}  // namespace
}  // namespace busytime
