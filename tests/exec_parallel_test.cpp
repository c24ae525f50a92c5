// Parallel execution layer: thread-pool/parallel_for semantics, memoized
// instance orders, and the determinism contract — per-component dispatch,
// exact solvers, and the sharded online stream driver must produce
// assignment-identical results at every thread count.  The stress tests at
// the bottom are the ThreadSanitizer targets (CI builds them with
// -DBUSYTIME_SANITIZE=thread).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/dispatch.hpp"
#include "algo/exact_minbusy.hpp"
#include "algo/first_fit.hpp"
#include "api/registry.hpp"
#include "core/components.hpp"
#include "core/instance_view.hpp"
#include "exec/thread_pool.hpp"
#include "extensions/capacity_demands.hpp"
#include "obs/metrics.hpp"
#include "online/stream_driver.hpp"
#include "service/service.hpp"
#include "util/prng.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

// ----------------------------------------------------------------- exec ---

TEST(ExecPool, ResolveThreadsClampsAndDefaults) {
  EXPECT_EQ(exec::resolve_threads(1), 1);
  EXPECT_EQ(exec::resolve_threads(-5), 1);
  EXPECT_EQ(exec::resolve_threads(8), 8);
  EXPECT_EQ(exec::resolve_threads(1 << 20), exec::kMaxThreads);
  EXPECT_GE(exec::resolve_threads(0), 1);
  EXPECT_GE(exec::hardware_threads(), 1);
  EXPECT_GE(exec::default_threads(), 1);
}

TEST(ExecPool, ParallelForRunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    const std::size_t n = 10000;
    std::vector<int> hits(n, 0);
    exec::parallel_for(threads, n, [&](std::size_t i) { hits[i] += 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
              static_cast<int>(n))
        << "threads=" << threads;
    EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                            [](int h) { return h == 1; }))
        << "threads=" << threads;
  }
}

TEST(ExecPool, SequentialPathRunsInIndexOrder) {
  std::vector<std::size_t> order;
  exec::parallel_for(1, 100, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecPool, ParallelForPropagatesExceptions) {
  for (const int threads : {1, 8}) {
    EXPECT_THROW(
        exec::parallel_for(threads, 1000,
                           [&](std::size_t i) {
                             if (i == 617) throw std::runtime_error("boom");
                           }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(ExecPool, NestedParallelForRunsInlineAndCompletes) {
  // A loop started from a pool task (how every Service request runs) runs
  // inline: every body on the task's own thread, in index order.  Each body
  // sleeps so that a loop that fanned out would hand some of them to the
  // shared pool's workers; the lock keeps that regression a clean failure
  // rather than a race.
  std::mutex mu;
  std::vector<std::thread::id> ran_on;
  std::vector<std::size_t> order;
  std::thread::id task_thread;
  std::promise<void> finished;
  {
    exec::ThreadPool pool(1);
    pool.submit([&] {
      task_thread = std::this_thread::get_id();
      exec::parallel_for(4, 64, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mu);
        ran_on.push_back(std::this_thread::get_id());
        order.push_back(i);
      });
      finished.set_value();
    });
    ASSERT_EQ(finished.get_future().wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
  }
  ASSERT_EQ(order.size(), 64u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(ran_on[i], task_thread);
  }

  // Three levels deep, every leaf runs exactly once, and an exception
  // thrown at depth 3 reaches the top-level caller.
  std::atomic<int> leaves{0};
  const auto nest3 = [&](std::size_t throw_at) {
    exec::parallel_for(4, 4, [&](std::size_t i) {
      exec::parallel_for(4, 4, [&](std::size_t j) {
        exec::parallel_for(4, 50, [&](std::size_t k) {
          if (i * 200 + j * 50 + k == throw_at)
            throw std::runtime_error("depth 3");
          leaves.fetch_add(1);
        });
      });
    });
  };
  nest3(/*throw_at=*/800);  // past the last leaf: nothing throws
  EXPECT_EQ(leaves.load(), 800);
  EXPECT_THROW(nest3(/*throw_at=*/2 * 200 + 1 * 50 + 37), std::runtime_error);
}

TEST(ExecPool, SubmitDrainsOnWorkers) {
  exec::ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) pool.submit([&] { ++done; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (done.load() < 64 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(done.load(), 64);
}

// -------------------------------------------------------- instance cache ---

TEST(InstanceCache, MemoizedOrdersAreStableAndShared) {
  GenParams p;
  p.n = 300;
  p.seed = 42;
  const Instance inst = gen_general(p);

  const auto& by_start = inst.ids_by_start();
  EXPECT_EQ(&by_start, &inst.ids_by_start()) << "second call must be cached";
  ASSERT_EQ(by_start.size(), inst.size());
  for (std::size_t k = 1; k < by_start.size(); ++k)
    EXPECT_LE(inst.job(by_start[k - 1]).start(), inst.job(by_start[k]).start());

  const auto& by_len = inst.ids_by_length_desc();
  for (std::size_t k = 1; k < by_len.size(); ++k)
    EXPECT_GE(inst.job(by_len[k - 1]).length(), inst.job(by_len[k]).length());

  // Copies share the snapshot cache; assignment swaps to the source's.
  const Instance copy = inst;
  EXPECT_EQ(&copy.ids_by_start(), &by_start);
  Instance other = gen_general(GenParams{});
  other = inst;
  EXPECT_EQ(other.ids_by_start(), by_start);
}

TEST(InstanceCache, ViewClassifiesEachComponentOnce) {
  TraceParams tp;
  tp.n = 2000;
  tp.arrival_rate = 0.05;
  tp.max_duration = 40;
  tp.seed = 3;
  const Instance trace = gen_trace(tp);
  const InstanceView view(trace, /*threads=*/8);
  ASSERT_GT(view.component_count(), 1u);
  std::size_t jobs = 0;
  for (std::size_t i = 0; i < view.component_count(); ++i) {
    const Instance& sub = view.component_instance(i);
    EXPECT_EQ(sub.size(), view.component_ids(i).size());
    const InstanceClass cls = classify(sub);
    EXPECT_EQ(view.component_class(i).clique, cls.clique);
    EXPECT_EQ(view.component_class(i).proper, cls.proper);
    EXPECT_EQ(view.component_class(i).one_sided, cls.one_sided);
    jobs += sub.size();
  }
  EXPECT_EQ(jobs, trace.size());
}

// Slow oracles for the two memoized orders: comparator sorts over the
// whole id range, the code the fast paths replaced.
std::vector<JobId> oracle_ids_by_start(const Instance& inst) {
  std::vector<JobId> ids(inst.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    const Job& ja = inst.job(a);
    const Job& jb = inst.job(b);
    if (ja.start() != jb.start()) return ja.start() < jb.start();
    if (ja.completion() != jb.completion()) return ja.completion() < jb.completion();
    return a < b;
  });
  return ids;
}

std::vector<JobId> oracle_ids_by_length_desc(const Instance& inst) {
  std::vector<JobId> ids(inst.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    if (inst.job(a).length() != inst.job(b).length())
      return inst.job(a).length() > inst.job(b).length();
    return a < b;
  });
  return ids;
}

void expect_orders_match_oracle(const Instance& inst, const std::string& what) {
  SCOPED_TRACE(what + " (n=" + std::to_string(inst.size()) + ")");
  EXPECT_EQ(inst.ids_by_start(), oracle_ids_by_start(inst));
  EXPECT_EQ(inst.ids_by_length_desc(), oracle_ids_by_length_desc(inst));
}

bool in_start_order(const Instance& inst) {
  return std::is_sorted(inst.jobs().begin(), inst.jobs().end(),
                        [](const Job& a, const Job& b) { return a.start() < b.start(); });
}

/// n jobs with random starts in [lo, lo + spread) and lengths in
/// [1, max_length], in generation order (not sorted).
std::vector<Job> random_jobs(std::size_t n, Time lo, Time spread, Time max_length,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const Time s = lo + rng.uniform_int(0, spread - 1);
    jobs.emplace_back(s, s + rng.uniform_int(1, max_length));
  }
  return jobs;
}

std::vector<Job> sorted_by_start(std::vector<Job> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(),
                   [](const Job& a, const Job& b) { return a.start() < b.start(); });
  return jobs;
}

TEST(InstanceCache, MemoizedOrdersMatchAComparatorSortOracle) {
  // Sizes from empty to past a trace component's.
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{255}, std::size_t{256}, std::size_t{3000}}) {
    // Unsorted: the scan fails and the comparison sort runs.
    expect_orders_match_oracle(Instance(random_jobs(n, 0, 500, 400, n + 1), 3),
                               "unsorted");
    // Start order with many equal starts: only the runs are sorted.
    expect_orders_match_oracle(
        Instance(sorted_by_start(random_jobs(n, 0, 40, 400, n + 2)), 3),
        "start-ordered");
    // Fully ordered: strictly increasing starts and completions.
    std::vector<Job> ordered;
    for (std::size_t i = 0; i < n; ++i)
      ordered.emplace_back(static_cast<Time>(2 * i), static_cast<Time>(2 * i + 1 + i % 5));
    expect_orders_match_oracle(Instance(ordered, 3), "fully ordered");
    // Every start equal: one run holding all n jobs.
    expect_orders_match_oracle(Instance(random_jobs(n, 7, 1, 60, n + 3), 3),
                               "all starts equal");
    // Negative times, sorted and not.
    expect_orders_match_oracle(Instance(random_jobs(n, -1000000, 300, 900, n + 4), 3),
                               "negative unsorted");
    expect_orders_match_oracle(
        Instance(sorted_by_start(random_jobs(n, -1000000, 300, 900, n + 5)), 3),
        "negative start-ordered");
    // Length ranges too wide for the counting pass.
    expect_orders_match_oracle(Instance(random_jobs(n, 0, 100, Time{1} << 12, n + 6), 3),
                               "lengths >= 2^11");
    expect_orders_match_oracle(Instance(random_jobs(n, 0, 100, Time{1} << 23, n + 7), 3),
                               "lengths >= 2^22");
    if (n == 0) continue;
    // Lengths just below 2^31, from 2^31 up, and past 32 bits.
    std::vector<Job> wide = random_jobs(n, 0, 100, Time{1} << 23, n + 8);
    wide[n / 2] = Job(5, 5 + (Time{1} << 31) - 1);
    expect_orders_match_oracle(Instance(wide, 3), "length 2^31 - 1");
    wide[n / 3] = Job(-3, -3 + (Time{1} << 31) + 11);
    expect_orders_match_oracle(Instance(wide, 3), "one length >= 2^31");
    wide[n - 1] = Job(7, 7 + (Time{1} << 40));
    expect_orders_match_oracle(Instance(wide, 3), "one length >= 2^32");
  }

  // Equal-start runs of 1-4 jobs in every completion order, ties included.
  std::vector<Job> runs;
  Time start = 0;
  for (const std::vector<Time>& lengths :
       {std::vector<Time>{3}, {1, 2}, {2, 2}, {1, 2, 3}, {1, 1, 2}, {1, 2, 2},
        {1, 2, 3, 4}, {1, 1, 2, 2}, {3, 3, 3, 1}}) {
    std::vector<Time> perm = lengths;
    std::sort(perm.begin(), perm.end());
    do {
      for (const Time len : perm) runs.emplace_back(start, start + len);
      start += 10;
    } while (std::next_permutation(perm.begin(), perm.end()));
  }
  ASSERT_TRUE(in_start_order(Instance(runs, 2)));
  expect_orders_match_oracle(Instance(runs, 2), "equal-start runs in every order");
  // The same jobs shuffled, and repeated past 256 jobs.
  std::vector<Job> shuffled = runs;
  Rng(11).shuffle(shuffled.begin(), shuffled.end());
  expect_orders_match_oracle(Instance(shuffled, 2), "equal-start runs shuffled");
  std::vector<Job> many;
  for (int copy = 0; copy < 4; ++copy)
    for (const Job& j : runs) many.emplace_back(j.start() + copy * start, j.completion() + copy * start);
  ASSERT_GE(many.size(), 256u);
  expect_orders_match_oracle(Instance(many, 2), "equal-start runs, 256 jobs or more");

  // A trace, a cancellable trace's base, and the component sub-instances
  // of a view all arrive in start order: the inputs the scan is for.
  TraceParams tp;
  tp.n = 4000;
  tp.arrival_rate = 0.05;
  tp.max_duration = 40;
  tp.seed = 5;
  const Instance trace = gen_trace(tp);
  EXPECT_TRUE(in_start_order(trace));
  expect_orders_match_oracle(trace, "gen_trace");
  CancelParams cp;
  cp.cancel_rate = 0.2;
  cp.seed = 6;
  const EventTrace cancellable = gen_cancellable(tp, cp);
  EXPECT_TRUE(in_start_order(cancellable.base()));
  expect_orders_match_oracle(cancellable.base(), "gen_cancellable");
  tp.n = 20000;
  tp.arrival_rate = 0.5;
  tp.max_duration = 500;
  for (const Instance& whole : {trace, gen_trace(tp)}) {
    const InstanceView view(whole, /*threads=*/1);
    ASSERT_GT(view.component_count(), 1u);
    for (std::size_t i = 0; i < view.component_count(); ++i) {
      const Instance& sub = view.component_instance(i);
      EXPECT_TRUE(in_start_order(sub));
      expect_orders_match_oracle(sub, "component " + std::to_string(i));
    }
  }
}

// The length order against std::stable_sort by non-increasing length, on
// both of its paths: the counting pass (max - min length below 4n + 64)
// and the comparison sort (a wider range).  Ranges sit just inside and
// just outside the counting rule, over small lengths and from 2^31 up;
// equal lengths, or only two distinct ones, leave the ties to the id.
TEST(InstanceCache, LengthOrderMatchesAStableSortOnEveryPath) {
  const auto stable_order = [](const Instance& inst) {
    std::vector<JobId> ids(inst.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
      return inst.job(a).length() > inst.job(b).length();
    });
    return ids;
  };
  // n jobs with lengths in [lo, lo + range], both ends taken (for n >= 2),
  // or only those two ends when `two_lengths`.
  const auto jobs_spanning = [](std::size_t n, Time lo, Time range, bool two_lengths,
                                std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      Time len = two_lengths ? lo + range * rng.uniform_int(0, 1)
                             : lo + rng.uniform_int(0, range);
      if (i == 0) len = lo + range;
      if (i == n / 2 && n > 1) len = lo;
      const Time s = rng.uniform_int(-500, 500);
      jobs.emplace_back(s, s + len);
    }
    return jobs;
  };
  constexpr Time k2To31 = Time{1} << 31;
  std::uint64_t seed = 0;
  for (const std::size_t n : {1, 2, 3, 17, 255, 256, 257, 1000, 5000}) {
    const Time rule = 4 * static_cast<Time>(n) + 64;  // counting iff range < rule
    struct Case {
      Time lo;
      Time range;
      const char* what;
    };
    std::vector<Case> cases = {{1, 0, "all lengths equal"},
                               {k2To31 + 5, 0, "all lengths equal, >= 2^31"}};
    if (n > 1) {
      cases.push_back({1, rule - 1, "range just inside the counting rule"});
      cases.push_back({1, rule, "range just outside the counting rule"});
      cases.push_back({700, rule - 1, "offset range just inside"});
      cases.push_back({700, rule, "offset range just outside"});
      cases.push_back({k2To31, rule - 1, ">= 2^31, range just inside"});
      cases.push_back({k2To31, rule, ">= 2^31, range just outside"});
      cases.push_back({k2To31 - 3, Time{1} << 33, ">= 2^31, wide range"});
    }
    for (const Case& c : cases) {
      for (const bool two_lengths : {false, true}) {
        const Instance inst(jobs_spanning(n, c.lo, c.range, two_lengths, ++seed), 3);
        EXPECT_EQ(inst.ids_by_length_desc(), stable_order(inst))
            << c.what << (two_lengths ? ", two lengths" : "") << " (n=" << n << ")";
      }
    }
  }
}

/// Component index of every job from a quadratic union-find over the
/// overlap graph: the definition, with no sweep and no start order.
std::vector<std::size_t> oracle_component_roots(const Instance& inst) {
  std::vector<std::size_t> parent(inst.size());
  std::iota(parent.begin(), parent.end(), std::size_t{0});
  const auto find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (std::size_t a = 0; a < inst.size(); ++a)
    for (std::size_t b = a + 1; b < inst.size(); ++b)
      if (inst.jobs()[a].interval.overlaps(inst.jobs()[b].interval))
        parent[find(a)] = find(b);
  for (std::size_t x = 0; x < inst.size(); ++x) parent[x] = find(x);
  return parent;
}

/// The view against its oracles: the cut against the union-find, each
/// sub-instance against restricted_to, each class against classify, and
/// each sub-instance's recorded start order against the comparator sort.
void expect_view_matches_oracles(const Instance& inst, int threads,
                                 const std::string& what) {
  SCOPED_TRACE(what + " (n=" + std::to_string(inst.size()) +
               ", g=" + std::to_string(inst.g()) + ")");
  const InstanceView view(inst, threads);
  const std::vector<std::size_t> roots = oracle_component_roots(inst);
  std::vector<JobId> concatenated;
  std::vector<std::size_t> root_of_component;
  for (std::size_t i = 0; i < view.component_count(); ++i) {
    const JobIdRange ids = view.component_ids(i);
    ASSERT_GT(ids.size(), 0u);
    const std::size_t root = roots[static_cast<std::size_t>(ids[0])];
    for (const JobId id : ids) EXPECT_EQ(roots[static_cast<std::size_t>(id)], root);
    root_of_component.push_back(root);
    concatenated.insert(concatenated.end(), ids.begin(), ids.end());

    const std::vector<JobId> id_vector(ids.begin(), ids.end());
    const Instance oracle = inst.restricted_to(id_vector);
    const Instance& sub = view.component_instance(i);
    EXPECT_EQ(sub.jobs(), oracle.jobs()) << "component " << i;
    EXPECT_EQ(sub.g(), inst.g());
    const InstanceClass cls = classify(oracle);
    EXPECT_EQ(view.component_class(i).clique, cls.clique) << "component " << i;
    EXPECT_EQ(view.component_class(i).proper, cls.proper) << "component " << i;
    EXPECT_EQ(view.component_class(i).one_sided, cls.one_sided) << "component " << i;
    EXPECT_EQ(sub.ids_by_start(), oracle_ids_by_start(sub)) << "component " << i;
  }
  // One component per union-find class, and the runs tile the start order.
  std::sort(root_of_component.begin(), root_of_component.end());
  EXPECT_EQ(std::unique(root_of_component.begin(), root_of_component.end()),
            root_of_component.end());
  std::vector<std::size_t> classes = roots;
  std::sort(classes.begin(), classes.end());
  classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
  EXPECT_EQ(view.component_count(), classes.size());
  EXPECT_EQ(concatenated, view.order());
  EXPECT_EQ(view.order(), oracle_ids_by_start(inst));
}

TEST(InstanceCache, ViewMatchesItsOraclesOnEveryFamily) {
  for (const int g : {1, 3, 8}) {
    for (const int n : {1, 37, 500}) {
      GenParams p;
      p.n = n;
      p.g = g;
      p.seed = static_cast<std::uint64_t>(100 * g + n);
      p.horizon = 8 * n;  // room for several components
      expect_view_matches_oracles(gen_general(p), 1, "general");
      expect_view_matches_oracles(gen_clique(p), 2, "clique");
      expect_view_matches_oracles(gen_proper(p), 1, "proper");
      expect_view_matches_oracles(gen_proper_clique(p), 4, "proper clique");
      expect_view_matches_oracles(gen_one_sided(p), 1, "one-sided");
      TraceParams tp;
      tp.n = n;
      tp.g = g;
      tp.arrival_rate = 0.05;
      tp.max_duration = 60;
      tp.seed = p.seed;
      expect_view_matches_oracles(gen_trace(tp), 4, "trace");
      // Start-sorted with many tied starts: short jobs packed on few start
      // times (many small components, runs of equal starts in every
      // completion order), and long ones (few large components).
      const std::size_t jobs = static_cast<std::size_t>(n);
      expect_view_matches_oracles(
          Instance(sorted_by_start(random_jobs(jobs, 0, n / 4 + 1, 3, p.seed)), g), 1,
          "tied starts, short jobs");
      expect_view_matches_oracles(
          Instance(sorted_by_start(random_jobs(jobs, -50, n / 8 + 1, 40, p.seed + 1)), g),
          4, "tied starts, long jobs");
    }
  }
}

// ---------------------------------------------------- offline determinism ---

std::vector<Instance> determinism_family() {
  std::vector<Instance> out;
  GenParams p;
  p.n = 400;
  p.g = 4;
  p.seed = 7;
  out.push_back(gen_general(p));
  p.seed = 8;
  out.push_back(gen_proper(p));
  p.n = 60;
  p.g = 2;
  p.seed = 9;
  out.push_back(gen_clique(p));
  TraceParams t;
  t.n = 3000;
  t.g = 6;
  t.arrival_rate = 0.1;
  t.seed = 11;
  out.push_back(gen_trace(t));
  return out;
}

TEST(ParallelSolve, AutoDispatchIdenticalAcrossThreadCounts) {
  for (const Instance& inst : determinism_family()) {
    const DispatchResult base = solve_minbusy_auto(inst, 1);
    for (const int threads : {2, 8}) {
      const DispatchResult d = solve_minbusy_auto(inst, threads);
      EXPECT_EQ(d.schedule.assignment(), base.schedule.assignment())
          << inst.summary() << " threads=" << threads;
      EXPECT_EQ(d.names, base.names) << inst.summary();
      EXPECT_EQ(d.component_jobs, base.component_jobs) << inst.summary();
      EXPECT_EQ(d.schedule.cost(inst), base.schedule.cost(inst));
    }
  }
}

TEST(ParallelSolve, PerComponentParallelMatchesSequential) {
  TraceParams tp;
  tp.n = 2000;
  tp.arrival_rate = 0.05;
  tp.max_duration = 40;
  tp.seed = 21;
  const Instance trace = gen_trace(tp);
  const auto solve = [](const Instance& sub) { return solve_first_fit(sub); };
  const Schedule sequential = solve_per_component_parallel(trace, solve, 1);
  for (const int threads : {2, 8}) {
    const Schedule parallel =
        solve_per_component_parallel(trace, solve, threads);
    EXPECT_EQ(parallel.assignment(), sequential.assignment())
        << "threads=" << threads;
  }
}

TEST(ParallelSolve, ExactSolversIdenticalAcrossDefaultThreads) {
  GenParams p;
  p.n = 14;
  p.g = 2;
  p.seed = 5;
  p.horizon = 4000;  // spread starts so several components exist
  const Instance inst = gen_general(p);

  exec::set_default_threads(1);
  const auto sequential = exact_minbusy(inst);
  const Schedule demands_sequential = exact_minbusy_demands(inst);
  exec::set_default_threads(8);
  const auto parallel = exact_minbusy(inst);
  const Schedule demands_parallel = exact_minbusy_demands(inst);
  exec::set_default_threads(0);

  ASSERT_TRUE(sequential.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(parallel->assignment(), sequential->assignment());
  EXPECT_EQ(demands_parallel.assignment(), demands_sequential.assignment());
}

// ----------------------------------------------------- sharded streaming ---

void expect_stats_eq(const EngineStats& a, const EngineStats& b,
                     const std::string& context) {
  EXPECT_EQ(a.jobs_assigned, b.jobs_assigned) << context;
  EXPECT_EQ(a.machines_opened, b.machines_opened) << context;
  EXPECT_EQ(a.machines_closed, b.machines_closed) << context;
  EXPECT_EQ(a.open_machines, b.open_machines) << context;
  EXPECT_EQ(a.peak_open_machines, b.peak_open_machines) << context;
  EXPECT_EQ(a.active_jobs, b.active_jobs) << context;
  EXPECT_EQ(a.peak_active_jobs, b.peak_active_jobs) << context;
  EXPECT_EQ(a.jobs_cancelled, b.jobs_cancelled) << context;
  EXPECT_EQ(a.jobs_preempted, b.jobs_preempted) << context;
  EXPECT_EQ(a.cancels_ignored, b.cancels_ignored) << context;
  EXPECT_EQ(a.slots_recycled, b.slots_recycled) << context;
  EXPECT_EQ(a.busy_time_refunded, b.busy_time_refunded) << context;
  EXPECT_EQ(a.clock, b.clock) << context;
  EXPECT_EQ(a.online_cost, b.online_cost) << context;
  EXPECT_TRUE(a == b) << context;  // full EngineStats equality
}

Instance sharding_trace(int n = 20000) {
  TraceParams tp;
  tp.n = n;
  tp.g = 6;
  tp.arrival_rate = 0.05;  // sparse arrivals: many components and idle gaps
  tp.min_duration = 5;
  tp.max_duration = 40;
  tp.seed = 13;
  return gen_trace(tp);
}

TEST(ShardedStream, PoliciesIdenticalAcrossThreadCounts) {
  const Instance trace = sharding_trace();
  PolicyParams params;
  params.epoch_length = 64;  // small epochs so epoch-safe cuts exist
  for (const OnlinePolicy policy :
       {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit,
        OnlinePolicy::kEpochHybrid}) {
    const ReplayResult base = replay_stream(trace, policy, params, 1);
    EXPECT_EQ(base.shards, 1u);
    for (const int threads : {2, 8}) {
      const ReplayResult r =
          replay_stream(trace, policy, params, threads, /*min_shard_jobs=*/512);
      const std::string context = to_string(policy) + " threads=" +
                                  std::to_string(threads) + " shards=" +
                                  std::to_string(r.shards);
      EXPECT_GT(r.shards, 1u) << context << " (sharding never engaged)";
      EXPECT_EQ(r.schedule.assignment(), base.schedule.assignment()) << context;
      expect_stats_eq(r.stats, base.stats, context);
    }
  }
}

TEST(ShardedStream, RunSolverMatchesSequential) {
  // 20000 jobs: enough for several shards of the default kMinShardJobs.
  const Instance trace = sharding_trace();
  const obs::MetricsRegistry& metrics = Service::process_default().metrics();
  const auto shards_run = [&] {
    return metrics.snapshot().counter_value(obs::metric::kOnlineShardsRun);
  };

  const std::uint64_t before = shards_run();
  const SolveResult a = run_solver(trace, SolverSpec::parse("online_best_fit"));
  const std::uint64_t mid = shards_run();
  const SolveResult b =
      run_solver(trace, SolverSpec::parse("online_best_fit:threads=8"));
  EXPECT_EQ(mid - before, 1u) << "the default request replays sequentially";
  EXPECT_GT(shards_run() - mid, 1u) << "sharding never engaged";

  EXPECT_TRUE(a.valid);
  EXPECT_TRUE(b.valid);
  EXPECT_EQ(b.cost, a.cost);
  EXPECT_EQ(b.ratio_to_lower_bound, a.ratio_to_lower_bound);
  EXPECT_EQ(b.schedule.assignment(), a.schedule.assignment());
  expect_stats_eq(b.stats, a.stats, "run_solver threads=8");
}

TEST(ShardedStream, DegenerateTracesAreSafe) {
  PolicyParams params;
  const Instance empty(std::vector<Job>{}, 4);
  const ReplayResult r0 = replay_stream(empty, OnlinePolicy::kFirstFit, params, 8);
  EXPECT_EQ(r0.schedule.size(), 0u);
  EXPECT_EQ(r0.stats.jobs_assigned, 0);

  GenParams p;
  p.n = 3;
  p.seed = 1;
  const Instance tiny = gen_general(p);
  const ReplayResult seq = replay_stream(tiny, OnlinePolicy::kFirstFit, params, 1);
  const ReplayResult par =
      replay_stream(tiny, OnlinePolicy::kFirstFit, params, 8, /*min_shard_jobs=*/1);
  EXPECT_EQ(par.schedule.assignment(), seq.schedule.assignment());
  expect_stats_eq(par.stats, seq.stats, "tiny trace");
}

// ------------------------------------------------------------ TSan stress ---

// Hammers the shared pool from several client threads at once: concurrent
// sharded replays and per-component dispatches over one shared Instance
// (exercising the memoized-order cache under contention).  Run under
// -DBUSYTIME_SANITIZE=thread in CI; any data race in the exec layer, the instance
// cache, or the shard merge shows up here.
TEST(StressParallel, ConcurrentShardedSolvesOverSharedInstance) {
  const Instance trace = sharding_trace(6000);
  PolicyParams params;
  const Time expected_online =
      replay_stream(trace, OnlinePolicy::kFirstFit, params, 1).stats.online_cost;
  const Time expected_offline = solve_minbusy_auto(trace, 1).schedule.cost(trace);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (int rep = 0; rep < 3; ++rep) {
        const ReplayResult online = replay_stream(
            trace, OnlinePolicy::kFirstFit, params, 2 + c % 3, /*min_shard_jobs=*/512);
        if (online.stats.online_cost != expected_online) ++failures;
        const DispatchResult offline = solve_minbusy_auto(trace, 2 + c % 3);
        if (offline.schedule.cost(trace) != expected_offline) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace busytime
