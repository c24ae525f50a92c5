// Service result cache: the "cached = computed" contract.  A hit must be
// bit-identical to the fresh solve it replaced — modulo wall_ms (zeroed)
// and the cached flag — for every workload family and every registered
// solver applicable to it, across both the blocking and the async submit
// paths.  Below the Service, the ResultCache's LRU order, byte cap, and
// key discrimination (instance fingerprint + canonical spec) are pinned
// directly.  The ServiceCache suite is a ThreadSanitizer CI target.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/result_cache.hpp"
#include "service/service.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

/// One instance per generator family, sized so every registered solver is
/// applicable to at least one of them (small clique for the exact /
/// matching / throughput solvers, staircase for BestCut, and so on).
std::vector<std::pair<std::string, Instance>> family_instances() {
  std::vector<std::pair<std::string, Instance>> out;
  TraceParams tp;
  tp.n = 120;
  tp.g = 3;
  tp.arrival_rate = 0.4;
  tp.diurnal = true;
  tp.seed = 7;
  out.emplace_back("trace", gen_trace(tp));
  GenParams clique;
  clique.n = 14;
  clique.g = 2;
  clique.seed = 3;
  out.emplace_back("clique", gen_clique(clique));
  GenParams proper;
  proper.n = 60;
  proper.g = 3;
  proper.seed = 4;
  out.emplace_back("proper", gen_proper(proper));
  GenParams proper_clique;
  proper_clique.n = 30;
  proper_clique.g = 3;
  proper_clique.seed = 6;
  out.emplace_back("proper_clique", gen_proper_clique(proper_clique));
  GenParams one_sided;
  one_sided.n = 40;
  one_sided.g = 4;
  one_sided.seed = 5;
  out.emplace_back("one_sided", gen_one_sided(one_sided));
  GenParams general;
  general.n = 80;
  general.g = 3;
  general.seed = 9;
  out.emplace_back("general", gen_general(general));
  return out;
}

std::vector<SolverSpec> runnable_specs(const Instance& inst, Time budget) {
  std::vector<SolverSpec> specs;
  for (const SolverInfo* info : SolverRegistry::instance().all()) {
    if (!info->applicable(inst)) continue;
    SolverSpec spec;
    spec.name = info->name;
    if (info->needs_budget) spec.options.budget = budget;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The cache contract: `hit` is `computed` except wall_ms = 0, cached = true.
void expect_cached_equals_computed(const SolveResult& hit,
                                   const SolveResult& computed,
                                   const std::string& label) {
  EXPECT_TRUE(hit.cached) << label;
  EXPECT_FALSE(computed.cached) << label;
  EXPECT_EQ(hit.wall_ms, 0.0) << label;
  EXPECT_EQ(hit.solver, computed.solver) << label;
  EXPECT_EQ(hit.status, computed.status) << label;
  EXPECT_EQ(hit.schedule.assignment(), computed.schedule.assignment()) << label;
  EXPECT_EQ(hit.cost, computed.cost) << label;
  EXPECT_EQ(hit.throughput, computed.throughput) << label;
  EXPECT_EQ(hit.valid, computed.valid) << label;
  EXPECT_EQ(hit.trace, computed.trace) << label;
  EXPECT_TRUE(hit.stats == computed.stats) << label;
  EXPECT_EQ(hit.ignored_options, computed.ignored_options) << label;
  EXPECT_DOUBLE_EQ(hit.ratio_to_lower_bound, computed.ratio_to_lower_bound)
      << label;
}

ServiceConfig cached_config(int workers = 2,
                            std::size_t cache_bytes = 32u << 20) {
  ServiceConfig config;
  config.workers = workers;
  config.cache_bytes = cache_bytes;
  return config;
}

// ------------------------------------------------- the equivalence sweep ---

TEST(ServiceCache, HitEqualsComputedForEveryFamilyAndSolver) {
  for (const auto& [family, inst] : family_instances()) {
    Service service(cached_config());
    const InstanceHandle handle = service.load(inst);
    for (const SolverSpec& spec : runnable_specs(inst, /*budget=*/800)) {
      const std::string label = family + "/" + spec.to_string();
      const SolveResult computed = service.solve(handle, spec);
      const SolveResult hit = service.solve(handle, spec);
      expect_cached_equals_computed(hit, computed, label);
    }
    const obs::MetricsSnapshot snap = service.metrics_snapshot();
    // Each (solver) pair solved once and hit once, in order.
    EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits),
              snap.counter_value(obs::metric::kServiceCacheMisses))
        << family;
    EXPECT_GT(snap.counter_value(obs::metric::kServiceCacheHits), 0u) << family;
  }
}

TEST(ServiceCache, SubmitHitsAreReadyAndEquivalent) {
  const Instance inst = family_instances()[0].second;
  Service service(cached_config());
  const InstanceHandle handle = service.load(inst);
  const SolverSpec spec = SolverSpec::parse("auto");
  const SolveResult computed = service.submit(handle, spec).get();
  // Warm: answered at submit time with an already-ready future.
  std::future<SolveResult> future = service.submit(handle, spec);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  expect_cached_equals_computed(future.get(), computed, "submit/auto");
}

TEST(ServiceCache, QueuedDuplicatesCollapseToOneSolve) {
  // Two identical submits on one worker: whichever way the race between
  // the second submit and the first solve resolves, exactly one request
  // misses (and solves) and one hits — at submit or at dispatch.
  const Instance inst = family_instances()[0].second;
  Service service(cached_config(/*workers=*/1));
  const InstanceHandle handle = service.load(inst);
  const SolverSpec spec = SolverSpec::parse("auto");
  std::future<SolveResult> first = service.submit(handle, spec);
  std::future<SolveResult> second = service.submit(handle, spec);
  const SolveResult a = first.get();
  const SolveResult b = second.get();
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheMisses), 1u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits), 1u);
  EXPECT_FALSE(a.cached);
  EXPECT_TRUE(b.cached);
  expect_cached_equals_computed(b, a, "dedup/auto");
}

TEST(ServiceCache, IgnoredOptionsReportTheHittingSpec) {
  // Specs that differ only in options the solver never reads share one
  // cache entry (same canonical key), but each hit reports its own spec's
  // ignored keys — the same canonicalization in both places.
  const Instance inst = family_instances()[0].second;
  Service service(cached_config());
  const InstanceHandle handle = service.load(inst);
  const SolveResult computed =
      service.solve(handle, SolverSpec::parse("first_fit"));
  EXPECT_TRUE(computed.ignored_options.empty());
  const SolveResult hit =
      service.solve(handle, SolverSpec::parse("first_fit:epoch=64"));
  EXPECT_TRUE(hit.cached);
  EXPECT_EQ(hit.schedule.assignment(), computed.schedule.assignment());
  EXPECT_EQ(hit.ignored_options, std::vector<std::string>{"epoch"});
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits), 1u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheMisses), 1u);
}

TEST(ServiceCache, DistinctInstancesAndSpecsNeverCrossHit) {
  // The guard against fingerprint/key mixups: same spec on two different
  // instances, and two different specs on one instance, must all solve.
  const std::vector<std::pair<std::string, Instance>> families =
      family_instances();
  Service service(cached_config());
  const SolverSpec spec = SolverSpec::parse("first_fit");
  std::vector<std::uint64_t> fingerprints;
  for (const auto& [family, inst] : families) {
    const InstanceHandle handle = service.load(inst);
    fingerprints.push_back(handle->fingerprint());
    const SolveResult result = service.solve(handle, spec);
    EXPECT_FALSE(result.cached) << family;
  }
  for (std::size_t i = 0; i < fingerprints.size(); ++i)
    for (std::size_t j = i + 1; j < fingerprints.size(); ++j)
      EXPECT_NE(fingerprints[i], fingerprints[j])
          << families[i].first << " vs " << families[j].first;
  // Same instance loaded twice fingerprints identically (the key is the
  // canonical content, not the handle identity) — so a fresh handle to the
  // same workload still hits.
  const InstanceHandle reloaded = service.load(families[0].second);
  EXPECT_EQ(reloaded->fingerprint(), fingerprints[0]);
  EXPECT_TRUE(service.solve(reloaded, spec).cached);
  // A different spec on a cached instance is a different key.
  EXPECT_FALSE(service.solve(reloaded, SolverSpec::parse("local_search")).cached);
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits), 1u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheMisses),
            families.size() + 1);
}

TEST(ServiceCache, TracedAndPreCancelledRequestsBypassTheCache) {
  const Instance inst = family_instances()[0].second;
  Service service(cached_config());
  const InstanceHandle handle = service.load(inst);
  SolverSpec spec = SolverSpec::parse("first_fit");
  service.solve(handle, spec);  // populate

  auto trace = std::make_shared<obs::TraceContext>();
  SolverSpec traced = spec;
  traced.trace = trace;
  EXPECT_FALSE(service.solve(handle, traced).cached);
  EXPECT_FALSE(trace->spans().empty());

  CancelToken cancel = CancelToken::make();
  cancel.request_cancel();
  SolverSpec cancelled = spec;
  cancelled.cancel = cancel;
  const SolveResult result = service.solve(handle, cancelled);
  EXPECT_EQ(result.status, SolveStatus::kCancelled);
  EXPECT_FALSE(result.cached);
}

// --------------------------------------------------- the LRU cache itself ---

ResultCache::Key key_of(std::uint64_t fingerprint, const std::string& spec) {
  ResultCache::Key key;
  key.fingerprint = fingerprint;
  key.spec = spec;
  return key;
}

SolveResult result_of(const std::string& solver, std::size_t jobs) {
  SolveResult result;
  result.solver = solver;
  result.status = SolveStatus::kOk;
  result.schedule.ensure_size(jobs);
  result.valid = true;
  return result;
}

TEST(ServiceCache, EvictionFollowsLruOrder) {
  const SolveResult value = result_of("x", 10);
  const std::size_t per_entry =
      ResultCache::entry_bytes(key_of(1, "a"), value);
  ResultCache cache(per_entry * 3);
  cache.insert(key_of(1, "a"), value);
  cache.insert(key_of(2, "b"), value);
  cache.insert(key_of(3, "c"), value);
  EXPECT_EQ(cache.entries(), 3u);
  // Touch "a": now "b" is the least recently used.
  SolveResult out;
  EXPECT_TRUE(cache.lookup(key_of(1, "a"), &out));
  EXPECT_EQ(cache.insert(key_of(4, "d"), value), 1u);
  EXPECT_TRUE(cache.lookup(key_of(1, "a"), &out));
  EXPECT_FALSE(cache.lookup(key_of(2, "b"), &out));
  EXPECT_TRUE(cache.lookup(key_of(3, "c"), &out));
  EXPECT_TRUE(cache.lookup(key_of(4, "d"), &out));
}

TEST(ServiceCache, ByteCapIsNeverExceeded) {
  const SolveResult small = result_of("s", 8);
  const std::size_t per_entry = ResultCache::entry_bytes(key_of(0, "k"), small);
  ResultCache cache(per_entry * 2 + per_entry / 2);
  for (std::uint64_t i = 0; i < 20; ++i) {
    cache.insert(key_of(i, "k"), small);
    EXPECT_LE(cache.bytes(), cache.capacity_bytes()) << i;
    EXPECT_LE(cache.entries(), 2u) << i;
  }
  // An entry larger than the whole cache is rejected outright rather than
  // evicting everything for nothing.
  const SolveResult huge = result_of("h", 100000);
  EXPECT_EQ(cache.insert(key_of(99, "huge"), huge), 0u);
  SolveResult out;
  EXPECT_FALSE(cache.lookup(key_of(99, "huge"), &out));
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ServiceCache, ReinsertRefreshesInPlace) {
  const SolveResult value = result_of("x", 10);
  const std::size_t per_entry = ResultCache::entry_bytes(key_of(1, "a"), value);
  ResultCache cache(per_entry * 2);
  cache.insert(key_of(1, "a"), value);
  cache.insert(key_of(2, "b"), value);
  // Re-inserting "a" replaces and refreshes; nothing is evicted and the
  // next eviction victim is "b".
  EXPECT_EQ(cache.insert(key_of(1, "a"), value), 0u);
  EXPECT_EQ(cache.entries(), 2u);
  cache.insert(key_of(3, "c"), value);
  SolveResult out;
  EXPECT_TRUE(cache.lookup(key_of(1, "a"), &out));
  EXPECT_FALSE(cache.lookup(key_of(2, "b"), &out));
}

TEST(ServiceCache, SameFingerprintDifferentSpecAreDistinctKeys) {
  // A fingerprint collision between specs must not alias entries: the
  // canonical spec string is part of the key and the hash.
  const SolveResult a = result_of("a", 4);
  const SolveResult b = result_of("b", 4);
  ResultCache cache(1u << 20);
  cache.insert(key_of(42, "auto"), a);
  cache.insert(key_of(42, "first_fit"), b);
  SolveResult out;
  ASSERT_TRUE(cache.lookup(key_of(42, "auto"), &out));
  EXPECT_EQ(out.solver, "a");
  ASSERT_TRUE(cache.lookup(key_of(42, "first_fit"), &out));
  EXPECT_EQ(out.solver, "b");
}

TEST(ServiceCache, EvictionMetricsFlowThroughTheService) {
  // A Service cache sized for roughly one entry: repeated distinct specs
  // must evict, and the stats must say so.
  const Instance inst = family_instances()[0].second;
  const std::size_t one_entry =
      ResultCache::entry_bytes(key_of(0, "auto"),
                               result_of("auto", inst.size())) +
      128;
  Service service(cached_config(/*workers=*/2, one_entry));
  const InstanceHandle handle = service.load(inst);
  service.solve(handle, SolverSpec::parse("first_fit"));
  service.solve(handle, SolverSpec::parse("local_search"));
  service.solve(handle, SolverSpec::parse("first_fit"));
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_GT(snap.counter_value(obs::metric::kServiceCacheEvictions), 0u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits), 0u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheMisses), 3u);
}

}  // namespace
}  // namespace busytime
