// Observability layer, part 1: the metric catalog and its registry.
//
// kMetricCatalog lists every metric the busytime stack emits: its name,
// kind and one-line meaning, sorted by name.  It is the only such list;
// docs/OBSERVABILITY.md and `busytime_cli --list-metrics` are checked
// against it.  A MetricsRegistry holds one cell per catalog row from the
// moment it is built, and is designed to stay on in release builds:
//
//  * a write names its metric by an obs::metric constant
//    (`registry.add<metric::kSolveRequests>()`), which resolves to its
//    row's cell at compile time; a name outside the catalog, or a write of
//    the wrong kind, does not compile;
//  * the write path is lock-free — counters and histograms stripe their
//    storage across cache-line-padded per-thread slots, so concurrent
//    workers never contend on one atomic, and a write is a single relaxed
//    fetch_add on the caller's stripe;
//  * reads happen only at snapshot() time, which merges the stripes into a
//    MetricsSnapshot (plain values in catalog order, which is name order,
//    zeros included, so consumers can diff snapshots structurally) and
//    renders it as a util/table or as the stable `busytime-metrics-v1`
//    JSON schema (docs/OBSERVABILITY.md).
//
// Determinism contract, extended to instrumentation: *what* is counted for
// a given instance + spec is exact and assertable — the same request yields
// the same counter totals at every worker count; only the duration-valued
// histograms (and the exec.* utilization gauges) vary run to run.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace busytime::exec {
struct PoolStats;
}

namespace busytime::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string to_string(MetricKind kind);

/// Catalog row: the metric's name, its kind, and the one-line meaning that
/// docs/OBSERVABILITY.md mirrors.
struct MetricDef {
  const char* name;
  MetricKind kind;
  const char* help;
};

// ------------------------------------------------------------ metric names
// The names instrumentation sites, the catalog rows and the tests share.
namespace metric {
inline constexpr char kServiceRequests[] = "service.requests";
inline constexpr char kServiceCompleted[] = "service.completed";
inline constexpr char kServiceOk[] = "service.ok";
inline constexpr char kServiceDeadlineExpired[] = "service.deadline_expired";
inline constexpr char kServiceCancelled[] = "service.cancelled";
inline constexpr char kServiceFailed[] = "service.failed";
inline constexpr char kServiceHandlesLoaded[] = "service.handles_loaded";
inline constexpr char kServiceViewBuilds[] = "service.view_builds";
inline constexpr char kServiceViewHits[] = "service.view_hits";
inline constexpr char kServiceQueueWaitUs[] = "service.queue_wait_us";
inline constexpr char kServiceRequestUs[] = "service.request_us";
inline constexpr char kServiceShed[] = "service.shed";
inline constexpr char kServiceCacheHits[] = "service.cache_hits";
inline constexpr char kServiceCacheMisses[] = "service.cache_misses";
inline constexpr char kServiceCacheEvictions[] = "service.cache_evictions";
inline constexpr char kServiceCacheBytes[] = "service.cache_bytes";
inline constexpr char kServiceTenantQueueDepth[] = "service.tenant_queue_depth";
inline constexpr char kSolveRequests[] = "solve.requests";
inline constexpr char kSolveDispatchRuns[] = "solve.dispatch_runs";
inline constexpr char kSolveComponentsSolved[] = "solve.components_solved";
inline constexpr char kSolveJobsDispatched[] = "solve.jobs_dispatched";
inline constexpr char kSolveViewBuildsInline[] = "solve.view_builds_inline";
inline constexpr char kSolveComponentJobs[] = "solve.component_jobs";
inline constexpr char kSolveComponentSolveUs[] = "solve.component_solve_us";
inline constexpr char kOnlineReplays[] = "online.replays";
inline constexpr char kOnlineShardsRun[] = "online.shards_run";
inline constexpr char kOnlineJobsReplayed[] = "online.jobs_replayed";
inline constexpr char kOnlineCancelsReplayed[] = "online.cancels_replayed";
inline constexpr char kOnlineShardJobs[] = "online.shard_jobs";
inline constexpr char kOnlineShardReplayUs[] = "online.shard_replay_us";
inline constexpr char kExecWorkers[] = "exec.workers";
inline constexpr char kExecTasksSubmitted[] = "exec.tasks_submitted";
inline constexpr char kExecTasksExecuted[] = "exec.tasks_executed";
inline constexpr char kExecQueueDepthPeak[] = "exec.queue_depth_peak";
inline constexpr char kExecBusyUsTotal[] = "exec.busy_us_total";
inline constexpr char kExecIdleUsTotal[] = "exec.idle_us_total";
inline constexpr char kExecQueueWaitUsTotal[] = "exec.queue_wait_us_total";
inline constexpr char kExecQueueWaitUsMax[] = "exec.queue_wait_us_max";
inline constexpr char kNetConnections[] = "net.connections";
inline constexpr char kNetFramesIn[] = "net.frames_in";
inline constexpr char kNetFramesOut[] = "net.frames_out";
inline constexpr char kNetBytesIn[] = "net.bytes_in";
inline constexpr char kNetBytesOut[] = "net.bytes_out";
inline constexpr char kNetDecodeErrors[] = "net.decode_errors";
inline constexpr char kNetInflight[] = "net.inflight";
}  // namespace metric

/// Every metric the busytime stack emits, sorted by name (a project lint
/// rule keeps it so): the source of truth for `busytime_cli --list-metrics`,
/// the docs drift check, and the cells of every MetricsRegistry.
inline constexpr MetricDef kMetricCatalog[] = {
    {metric::kExecBusyUsTotal, MetricKind::kGauge,
     "Total worker time spent running tasks, microseconds (pool sample)"},
    {metric::kExecIdleUsTotal, MetricKind::kGauge,
     "Total worker time spent parked on the queue, microseconds (pool sample)"},
    {metric::kExecQueueDepthPeak, MetricKind::kGauge,
     "Deepest the pool's task queue has been (pool sample)"},
    {metric::kExecQueueWaitUsMax, MetricKind::kGauge,
     "Longest a task sat queued before a worker picked it up, microseconds"},
    {metric::kExecQueueWaitUsTotal, MetricKind::kGauge,
     "Total queued-task wait time, microseconds (pool sample)"},
    {metric::kExecTasksExecuted, MetricKind::kGauge,
     "Tasks the pool's workers have finished (pool sample)"},
    {metric::kExecTasksSubmitted, MetricKind::kGauge,
     "Tasks handed to the pool's queue (pool sample)"},
    {metric::kExecWorkers, MetricKind::kGauge,
     "Worker threads the pool has started (pool sample)"},
    {metric::kNetBytesIn, MetricKind::kCounter,
     "Bytes read from remote-serving connections"},
    {metric::kNetBytesOut, MetricKind::kCounter,
     "Bytes written to remote-serving connections"},
    {metric::kNetConnections, MetricKind::kCounter,
     "TCP connections accepted by the serving reactor"},
    {metric::kNetDecodeErrors, MetricKind::kCounter,
     "Malformed frames (bad magic, oversized, truncated, bad payload)"},
    {metric::kNetFramesIn, MetricKind::kCounter,
     "Request frames decoded from remote-serving connections"},
    {metric::kNetFramesOut, MetricKind::kCounter,
     "Response frames written to remote-serving connections"},
    {metric::kNetInflight, MetricKind::kGauge,
     "Remote solve requests submitted to the Service and not yet replied"},
    {metric::kOnlineCancelsReplayed, MetricKind::kCounter,
     "Retraction records fed through online policies"},
    {metric::kOnlineJobsReplayed, MetricKind::kCounter,
     "Arrivals fed through online policies"},
    {metric::kOnlineReplays, MetricKind::kCounter,
     "Sharded stream replays started"},
    {metric::kOnlineShardJobs, MetricKind::kHistogram,
     "Arrivals per replay shard (deterministic for a given request)"},
    {metric::kOnlineShardReplayUs, MetricKind::kHistogram,
     "Wall time per replay shard, microseconds"},
    {metric::kOnlineShardsRun, MetricKind::kCounter,
     "Shards replayed across all stream replays"},
    {metric::kServiceCacheBytes, MetricKind::kGauge,
     "Bytes the result cache currently holds (0 when caching is off)"},
    {metric::kServiceCacheEvictions, MetricKind::kCounter,
     "Result-cache entries evicted to stay under the byte cap"},
    {metric::kServiceCacheHits, MetricKind::kCounter,
     "Requests served from the result cache (no solve ran)"},
    {metric::kServiceCacheMisses, MetricKind::kCounter,
     "Cache-eligible requests that had to compute their result"},
    {metric::kServiceCancelled, MetricKind::kCounter,
     "Requests completed with status kCancelled"},
    {metric::kServiceCompleted, MetricKind::kCounter,
     "Requests that reached a terminal state (any status, or threw)"},
    {metric::kServiceDeadlineExpired, MetricKind::kCounter,
     "Requests completed with status kDeadline"},
    {metric::kServiceFailed, MetricKind::kCounter,
     "Requests that threw (unknown solver, not applicable, ...)"},
    {metric::kServiceHandlesLoaded, MetricKind::kCounter,
     "InstanceHandles created by Service::load"},
    {metric::kServiceOk, MetricKind::kCounter,
     "Requests completed with status kOk"},
    {metric::kServiceQueueWaitUs, MetricKind::kHistogram,
     "Submit-to-execution wait per pooled request, microseconds"},
    {metric::kServiceRequestUs, MetricKind::kHistogram,
     "End-to-end request wall time (queue wait included), microseconds"},
    {metric::kServiceRequests, MetricKind::kCounter,
     "Requests entering the Service (submitted and blocking)"},
    {metric::kServiceShed, MetricKind::kCounter,
     "Requests rejected by admission control with status kShedded"},
    {metric::kServiceTenantQueueDepth, MetricKind::kGauge,
     "Deepest any tenant queue has been (scheduling-dependent, varies run "
     "to run)"},
    {metric::kServiceViewBuilds, MetricKind::kCounter,
     "Cached InstanceView decompositions built by handles"},
    {metric::kServiceViewHits, MetricKind::kCounter,
     "Warm re-solves that reused a handle's cached InstanceView"},
    {metric::kSolveComponentJobs, MetricKind::kHistogram,
     "Jobs per dispatched component (deterministic for a given request)"},
    {metric::kSolveComponentSolveUs, MetricKind::kHistogram,
     "Wall time per dispatched component solve, microseconds"},
    {metric::kSolveComponentsSolved, MetricKind::kCounter,
     "Components solved by the per-component dispatcher"},
    {metric::kSolveDispatchRuns, MetricKind::kCounter,
     "Per-component dispatcher invocations"},
    {metric::kSolveJobsDispatched, MetricKind::kCounter,
     "Jobs covered by dispatched components"},
    {metric::kSolveRequests, MetricKind::kCounter,
     "Requests reaching the api/ run path"},
    {metric::kSolveViewBuildsInline, MetricKind::kCounter,
     "InstanceViews built inline by dispatch (no handle cache available)"},
};

// ------------------------------------------------------------------ cells

/// Stripes per counter/histogram: enough that a handful of pool workers
/// land on distinct cache lines, small enough that merging stays trivial.
/// Power of two (the per-thread slot is masked into it).
inline constexpr std::size_t kStripes = 16;

/// Histogram buckets.  Bucket 0 counts zero values; bucket i >= 1 counts
/// values v with 2^(i-1) <= v < 2^i (i.e. bit_width(v) == i); the last
/// bucket absorbs everything wider.  With 40 buckets the overflow line sits
/// at 2^38 microseconds ≈ 76 hours — beyond any request.
inline constexpr std::size_t kHistogramBuckets = 40;

namespace detail {

/// The caller's stripe slot: a small thread id handed out once per thread,
/// masked into [0, kStripes).
std::size_t stripe_index() noexcept;

/// C++17 stand-in for std::bit_width (mirrors util/bitops.hpp).
inline std::size_t bit_width(std::uint64_t v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  return v == 0 ? 0 : 64u - static_cast<std::size_t>(__builtin_clzll(v));
#else
  std::size_t width = 0;
  while (v != 0) {
    v >>= 1;
    ++width;
  }
  return width;
#endif
}

inline std::size_t bucket_index(std::uint64_t value) noexcept {
  const std::size_t width = bit_width(value);
  return width < kHistogramBuckets ? width : kHistogramBuckets - 1;
}

/// Relaxed running max (statistics only, no ordering needed).
inline void update_max(std::atomic<std::uint64_t>& slot,
                       std::uint64_t value) noexcept {
  std::uint64_t current = slot.load(std::memory_order_relaxed);
  while (value > current &&
         !slot.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

struct alignas(64) CounterStripe {
  std::atomic<std::uint64_t> value{0};
};

struct CounterCell {
  CounterStripe stripes[kStripes];

  void add(std::uint64_t delta) noexcept {
    stripes[stripe_index()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const CounterStripe& s : stripes)
      sum += s.value.load(std::memory_order_relaxed);
    return sum;
  }
};

struct GaugeCell {
  std::atomic<std::int64_t> value{0};
};

struct alignas(64) HistogramStripe {
  std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> max{0};
};

struct HistogramCell {
  HistogramStripe stripes[kStripes];

  void record(std::uint64_t value) noexcept {
    HistogramStripe& s = stripes[stripe_index()];
    s.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
    update_max(s.max, value);
  }
};

inline constexpr std::size_t kCatalogRows = std::size(kMetricCatalog);

/// The catalog row named `name`; kCatalogRows when there is none.
constexpr std::size_t catalog_row(std::string_view name) {
  std::size_t row = 0;
  while (row < kCatalogRows && name != kMetricCatalog[row].name) ++row;
  return row;
}

/// Rows of `kind` among the catalog's first `rows`: over the whole catalog,
/// a registry's cells of that kind; up to a row of that kind, its cell.
constexpr std::size_t cells_of(MetricKind kind,
                               std::size_t rows = kCatalogRows) {
  std::size_t cells = 0;
  for (std::size_t row = 0; row < rows; ++row)
    if (kMetricCatalog[row].kind == kind) ++cells;
  return cells;
}

/// The cell of metric `Name` among the cells of `Kind`.
template <const char* Name, MetricKind Kind>
constexpr std::size_t cell_of() {
  constexpr std::size_t row = catalog_row(Name);
  static_assert(row < kCatalogRows, "metric is not a row of kMetricCatalog");
  static_assert(row == kCatalogRows || kMetricCatalog[row].kind == Kind,
                "metric written as a kind its catalog row does not have");
  return cells_of(Kind, row);
}

}  // namespace detail

// --------------------------------------------------------------- snapshot

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  /// Merged per-bucket counts (kHistogramBuckets entries; see the bucket
  /// boundary rule on kHistogramBuckets).
  std::vector<std::uint64_t> buckets;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// A merged, point-in-time view of one registry: plain values sorted by
/// metric name.  Counters/histograms are monotone between snapshots of a
/// live registry, so consumers may diff two snapshots for interval rates.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Value lookups; a name this snapshot does not carry reads as zero /
  /// null (a registry's snapshots carry every catalog row).
  std::uint64_t counter_value(const std::string& name) const noexcept;
  std::int64_t gauge_value(const std::string& name) const noexcept;
  const HistogramSnapshot* histogram(const std::string& name) const noexcept;

  /// The stable `busytime-metrics-v1` document (docs/OBSERVABILITY.md):
  /// {"format": "busytime-metrics-v1", "counters": {...}, "gauges": {...},
  ///  "histograms": {name: {count, sum, max, mean, buckets: [...]}}}.
  json::Value to_json() const;

  /// Human-readable util/table rendering (one row per metric; histograms
  /// show count/mean/max).
  void print(std::ostream& os) const;
};

// --------------------------------------------------------------- registry

/// One cell per kMetricCatalog row, built with the registry.  Writes name
/// their metric at compile time and never lock; see the file comment.
class MetricsRegistry {
 public:
  /// Adds `delta` to counter `Name`.
  template <const char* Name>
  void add(std::uint64_t delta = 1) noexcept {
    constexpr std::size_t cell = detail::cell_of<Name, MetricKind::kCounter>();
    counters_[cell].add(delta);
  }
  /// Sets gauge `Name` to `value`.
  template <const char* Name>
  void set(std::int64_t value) noexcept {
    constexpr std::size_t cell = detail::cell_of<Name, MetricKind::kGauge>();
    gauges_[cell].value.store(value, std::memory_order_relaxed);
  }
  /// Records one `value` into histogram `Name`.
  template <const char* Name>
  void record(std::uint64_t value) noexcept {
    constexpr std::size_t cell =
        detail::cell_of<Name, MetricKind::kHistogram>();
    histograms_[cell].record(value);
  }

  /// Merges every stripe into plain values.  Safe to call concurrently with
  /// writes: each stripe is read atomically, so totals are a consistent
  /// "at or after the call" lower bound (exact once writers are quiescent).
  MetricsSnapshot snapshot() const;

 private:
  detail::CounterCell counters_[detail::cells_of(MetricKind::kCounter)];
  detail::GaugeCell gauges_[detail::cells_of(MetricKind::kGauge)];
  detail::HistogramCell histograms_[detail::cells_of(MetricKind::kHistogram)];
};

/// Publishes an exec::ThreadPool stats sample into the exec.* gauges of
/// `registry` (defined here so exec/ stays observability-free; only times
/// and depths — durations, not deterministic counts).
void publish_pool_stats(const exec::PoolStats& stats, MetricsRegistry& registry);

}  // namespace busytime::obs
