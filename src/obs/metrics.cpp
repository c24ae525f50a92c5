#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>
#include <stdexcept>

#include "exec/thread_pool.hpp"
#include "util/table.hpp"

namespace busytime::obs {

std::string to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

const std::vector<MetricDef>& builtin_metric_defs() {
  static const std::vector<MetricDef> defs = {
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
  return defs;
}

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id =
      next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(id) & (kStripes - 1);
}

}  // namespace detail

// --------------------------------------------------------------- registry

MetricsRegistry::MetricsRegistry() {
  for (const MetricDef& def : builtin_metric_defs()) {
    Entry& entry = entry_for(def.name, def.kind);
    entry.help = def.help;
  }
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(const std::string& name,
                                                   MetricKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<detail::CounterCell>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<detail::GaugeCell>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<detail::HistogramCell>();
        break;
    }
  } else if (entry.kind != kind) {
    throw std::invalid_argument("metric '" + name + "' is a " +
                                to_string(entry.kind) + ", requested as " +
                                to_string(kind));
  }
  return entry;
}

Counter MetricsRegistry::counter(const std::string& name) {
  return Counter(entry_for(name, MetricKind::kCounter).counter.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  return Gauge(entry_for(name, MetricKind::kGauge).gauge.get());
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  return Histogram(entry_for(name, MetricKind::kHistogram).histogram.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, entry] : entries_) {  // std::map: sorted by name
    switch (entry.kind) {
      case MetricKind::kCounter:
        snap.counters.emplace_back(name, entry.counter->total());
        break;
      case MetricKind::kGauge:
        snap.gauges.emplace_back(
            name, entry.gauge->value.load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        HistogramSnapshot h;
        h.buckets.assign(kHistogramBuckets, 0);
        for (const detail::HistogramStripe& s : entry.histogram->stripes) {
          h.count += s.count.load(std::memory_order_relaxed);
          h.sum += s.sum.load(std::memory_order_relaxed);
          h.max = std::max(h.max, s.max.load(std::memory_order_relaxed));
          for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            h.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
        }
        snap.histograms.emplace_back(name, std::move(h));
        break;
      }
    }
  }
  return snap;
}

std::vector<MetricDef> MetricsRegistry::registered() const {
  std::vector<MetricDef> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_)
    out.push_back({name, entry.kind, entry.help});
  return out;
}

MetricsRegistry& MetricsRegistry::process_default() {
  // Intentionally leaked (like exec::ThreadPool::shared()): instrumentation
  // may fire from any static's lifetime, and handle holders assume the
  // cells stay valid.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

// --------------------------------------------------------------- snapshot

namespace {

template <typename T>
const T* find_named(const std::vector<std::pair<std::string, T>>& items,
                    const std::string& name) noexcept {
  for (const auto& [key, value] : items)
    if (key == name) return &value;
  return nullptr;
}

}  // namespace

std::uint64_t MetricsSnapshot::counter_value(
    const std::string& name) const noexcept {
  const std::uint64_t* v = find_named(counters, name);
  return v == nullptr ? 0 : *v;
}

std::int64_t MetricsSnapshot::gauge_value(
    const std::string& name) const noexcept {
  const std::int64_t* v = find_named(gauges, name);
  return v == nullptr ? 0 : *v;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const noexcept {
  return find_named(histograms, name);
}

json::Value MetricsSnapshot::to_json() const {
  json::Value root = json::Value::object();
  root.set("format", "busytime-metrics-v1");

  json::Value cs = json::Value::object();
  for (const auto& [name, value] : counters)
    cs.set(name, static_cast<std::int64_t>(value));
  root.set("counters", std::move(cs));

  json::Value gs = json::Value::object();
  for (const auto& [name, value] : gauges) gs.set(name, value);
  root.set("gauges", std::move(gs));

  json::Value hs = json::Value::object();
  for (const auto& [name, h] : histograms) {
    json::Value entry = json::Value::object();
    entry.set("count", static_cast<std::int64_t>(h.count));
    entry.set("sum", static_cast<std::int64_t>(h.sum));
    entry.set("max", static_cast<std::int64_t>(h.max));
    entry.set("mean", h.mean());
    json::Value buckets = json::Value::array();
    for (const std::uint64_t b : h.buckets)
      buckets.push_back(static_cast<std::int64_t>(b));
    entry.set("buckets", std::move(buckets));
    hs.set(name, std::move(entry));
  }
  root.set("histograms", std::move(hs));
  return root;
}

void MetricsSnapshot::print(std::ostream& os) const {
  Table table({"metric", "kind", "value", "mean", "max"});
  for (const auto& [name, value] : counters)
    table.add_row({name, "counter",
                   Table::fmt(static_cast<long long>(value)), "", ""});
  for (const auto& [name, value] : gauges)
    table.add_row({name, "gauge",
                   Table::fmt(static_cast<long long>(value)), "", ""});
  for (const auto& [name, h] : histograms)
    table.add_row({name, "histogram",
                   Table::fmt(static_cast<long long>(h.count)),
                   Table::fmt(h.mean(), 1),
                   Table::fmt(static_cast<long long>(h.max))});
  table.print(os);
}

// ------------------------------------------------------------- pool stats

void publish_pool_stats(const exec::PoolStats& stats,
                        MetricsRegistry& registry) {
  const auto us = [](std::uint64_t ns) {
    return static_cast<std::int64_t>(ns / 1000);
  };
  registry.gauge(metric::kExecWorkers).set(stats.workers);
  registry.gauge(metric::kExecTasksSubmitted)
      .set(static_cast<std::int64_t>(stats.tasks_submitted));
  registry.gauge(metric::kExecTasksExecuted)
      .set(static_cast<std::int64_t>(stats.tasks_executed));
  registry.gauge(metric::kExecQueueDepthPeak)
      .set(static_cast<std::int64_t>(stats.queue_depth_peak));
  registry.gauge(metric::kExecBusyUsTotal).set(us(stats.busy_ns_total));
  registry.gauge(metric::kExecIdleUsTotal).set(us(stats.idle_ns_total));
  registry.gauge(metric::kExecQueueWaitUsTotal)
      .set(us(stats.queue_wait_ns_total));
  registry.gauge(metric::kExecQueueWaitUsMax).set(us(stats.queue_wait_ns_max));
}

}  // namespace busytime::obs
