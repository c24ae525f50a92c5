#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

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

namespace detail {

std::size_t stripe_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned id =
      next.fetch_add(1, std::memory_order_relaxed);
  return static_cast<std::size_t>(id) & (kStripes - 1);
}

}  // namespace detail

// --------------------------------------------------------------- registry

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  // The cells of each kind follow their rows' catalog order.
  std::size_t counter = 0, gauge = 0, histogram = 0;
  for (const MetricDef& def : kMetricCatalog) {
    switch (def.kind) {
      case MetricKind::kCounter:
        snap.counters.emplace_back(def.name, counters_[counter++].total());
        break;
      case MetricKind::kGauge:
        snap.gauges.emplace_back(
            def.name, gauges_[gauge++].value.load(std::memory_order_relaxed));
        break;
      case MetricKind::kHistogram: {
        const detail::HistogramCell& cell = histograms_[histogram++];
        HistogramSnapshot h;
        h.buckets.assign(kHistogramBuckets, 0);
        for (const detail::HistogramStripe& s : cell.stripes) {
          h.count += s.count.load(std::memory_order_relaxed);
          h.sum += s.sum.load(std::memory_order_relaxed);
          h.max = std::max(h.max, s.max.load(std::memory_order_relaxed));
          for (std::size_t b = 0; b < kHistogramBuckets; ++b)
            h.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
        }
        snap.histograms.emplace_back(def.name, std::move(h));
        break;
      }
    }
  }
  return snap;
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
  registry.set<metric::kExecWorkers>(stats.workers);
  registry.set<metric::kExecTasksSubmitted>(
      static_cast<std::int64_t>(stats.tasks_submitted));
  registry.set<metric::kExecTasksExecuted>(
      static_cast<std::int64_t>(stats.tasks_executed));
  registry.set<metric::kExecQueueDepthPeak>(
      static_cast<std::int64_t>(stats.queue_depth_peak));
  registry.set<metric::kExecBusyUsTotal>(us(stats.busy_ns_total));
  registry.set<metric::kExecIdleUsTotal>(us(stats.idle_ns_total));
  registry.set<metric::kExecQueueWaitUsTotal>(us(stats.queue_wait_ns_total));
  registry.set<metric::kExecQueueWaitUsMax>(us(stats.queue_wait_ns_max));
}

}  // namespace busytime::obs
