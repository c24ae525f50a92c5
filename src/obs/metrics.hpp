// Observability layer, part 1: the process/service metrics registry.
//
// A MetricsRegistry is a named set of counters, gauges, and fixed-bucket
// latency histograms designed to stay on in release builds:
//
//  * the write path is lock-free — counters and histograms stripe their
//    storage across cache-line-padded per-thread slots, so concurrent
//    workers never contend on one atomic, and a write is a single relaxed
//    fetch_add on the caller's stripe;
//  * reads happen only at snapshot() time, which merges the stripes into a
//    MetricsSnapshot (plain values, sorted by name) and renders it as a
//    util/table or as the stable `busytime-metrics-v1` JSON schema
//    (docs/OBSERVABILITY.md).
//
// Determinism contract, extended to instrumentation: *what* is counted for
// a given instance + spec is exact and assertable — the same request yields
// the same counter totals at every worker count; only the duration-valued
// histograms (and the exec.* utilization gauges) vary run to run.
//
// Every metric a busytime binary emits is preregistered from
// builtin_metric_defs(), the single catalog that docs/OBSERVABILITY.md and
// `busytime_cli --list-metrics` are checked against; snapshots therefore
// always carry the full key set (zeros included), so consumers can diff
// them structurally.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

namespace busytime::exec {
struct PoolStats;
}

namespace busytime::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

std::string to_string(MetricKind kind);

/// Catalog entry: the registered name, its kind, and the one-line meaning
/// that docs/OBSERVABILITY.md mirrors.
struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::string help;
};

/// Every metric the busytime stack emits, sorted by name — the source of
/// truth for `busytime_cli --list-metrics` and the docs drift check.
const std::vector<MetricDef>& builtin_metric_defs();

// ------------------------------------------------------------ metric names
// Shared by instrumentation sites, the catalog, and the tests; a typo in a
// site would otherwise silently register a second metric.
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

}  // namespace detail

// ---------------------------------------------------------------- handles
// Cheap copyable handles bound to a registry cell.  A default-constructed
// handle is inert (every operation a no-op), so instrumentation sites never
// need a null check.  A handle must not outlive its registry — holders that
// can outlive a Service (e.g. InstanceState) keep a shared_ptr to the
// registry alongside.

class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta) const noexcept {
    if (cell_ != nullptr) cell_->add(delta);
  }
  void inc() const noexcept { add(1); }

 private:
  friend class MetricsRegistry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t value) const noexcept {
    if (cell_ != nullptr) cell_->value.store(value, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) const noexcept {
    if (cell_ != nullptr)
      cell_->value.fetch_add(delta, std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void record(std::uint64_t value) const noexcept {
    if (cell_ != nullptr) cell_->record(value);
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

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
  /// null (snapshots of a default-built registry carry every builtin).
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

/// A named metric set.  Handles are resolved once (a mutex-guarded map
/// lookup, registering the name on first use) and written lock-free
/// thereafter.  Looking a name up with the wrong kind throws — one name,
/// one kind, process-wide.
class MetricsRegistry {
 public:
  /// Preregisters every builtin_metric_defs() entry, so snapshot() always
  /// carries the full catalog.
  MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  /// Merges every stripe into plain values.  Safe to call concurrently with
  /// writes: each stripe is read atomically, so totals are a consistent
  /// "at or after the call" lower bound (exact once writers are quiescent).
  MetricsSnapshot snapshot() const;

  /// Registered names + kinds, sorted (the builtins plus anything
  /// registered on first use).
  std::vector<MetricDef> registered() const;

  /// The registry behind instrumentation that runs outside any Service
  /// (direct solve_minbusy_auto / replay_stream calls).  Never destroyed,
  /// same discipline as exec::ThreadPool::shared().
  static MetricsRegistry& process_default();

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::unique_ptr<detail::CounterCell> counter;
    std::unique_ptr<detail::GaugeCell> gauge;
    std::unique_ptr<detail::HistogramCell> histogram;
  };

  Entry& entry_for(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Publishes an exec::ThreadPool stats sample into the exec.* gauges of
/// `registry` (defined here so exec/ stays observability-free; only times
/// and depths — durations, not deterministic counts).
void publish_pool_stats(const exec::PoolStats& stats, MetricsRegistry& registry);

}  // namespace busytime::obs
