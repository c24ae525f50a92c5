// Multi-tenant Service: deficit-round-robin dispatch order, weighted
// fairness under a backlogged single worker, and the admission-control
// shed contract (SolveStatus::kShedded, empty schedule, service.shed
// agreeing with the results).  The DrrScheduler units pin the exact
// dispatch sequence — dispatch order is a pure function of enqueue order —
// and the Service-level tests gate the queue behind a long solve so the
// drain happens with every request already enqueued.  The ServiceTenant
// suite is a ThreadSanitizer CI target.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "service/tenant_queue.hpp"
#include "workload/generators.hpp"

namespace busytime {
namespace {

Instance small_instance(int n = 80, std::uint64_t seed = 9) {
  GenParams p;
  p.n = n;
  p.g = 3;
  p.seed = seed;
  return gen_general(p);
}

/// A workload whose `auto` solve is slow enough to act as a gate: while it
/// occupies the single worker, everything submitted behind it queues up.
Instance gate_instance() {
  GenParams p;
  p.n = 150;
  p.g = 3;
  p.seed = 3;
  return gen_clique(p);
}

/// Blocks until the Service has picked the gate request off the queue
/// (its submit-to-pickup wait lands in service.queue_wait_us), so the
/// tenant queues behind it start empty and nothing dequeues until the gate
/// completes.
void wait_for_pickup(const Service& service, std::uint64_t picked_up) {
  for (;;) {
    const obs::MetricsSnapshot snap = service.metrics_snapshot();
    const obs::HistogramSnapshot* wait =
        snap.histogram(obs::metric::kServiceQueueWaitUs);
    if (wait != nullptr && wait->count >= picked_up) return;
    std::this_thread::yield();
  }
}

// ------------------------------------------------------ DrrScheduler units ---

TEST(ServiceTenant, SingleTenantDrrIsFifo) {
  DrrScheduler scheduler;
  const TenantHandle t = std::make_shared<TenantState>("t", 3, 0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(scheduler.try_enqueue(t, [&order, i] { order.push_back(i); }));
  for (std::function<void()> task = scheduler.next(); task;
       task = scheduler.next())
    task();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(scheduler.queued_total(), 0u);
}

TEST(ServiceTenant, DispatchOrderFollowsWeights) {
  // Three backlogged tenants with weights 1/2/3: each round serves one a,
  // two b, three c, in first-enqueue order; a drained tenant leaves its
  // round and forfeits leftover deficit.
  DrrScheduler scheduler;
  const TenantHandle a = std::make_shared<TenantState>("a", 1, 0);
  const TenantHandle b = std::make_shared<TenantState>("b", 2, 0);
  const TenantHandle c = std::make_shared<TenantState>("c", 3, 0);
  std::vector<std::string> order;
  const auto enqueue = [&](const TenantHandle& t, int i) {
    ASSERT_TRUE(scheduler.try_enqueue(
        t, [&order, label = t->name() + std::to_string(i)] {
          order.push_back(label);
        }));
  };
  // Round-robin submission, 6 each: active order is first-touch a, b, c.
  for (int i = 1; i <= 6; ++i) {
    enqueue(a, i);
    enqueue(b, i);
    enqueue(c, i);
  }
  for (std::function<void()> task = scheduler.next(); task;
       task = scheduler.next())
    task();
  const std::vector<std::string> want = {
      "a1", "b1", "b2", "c1", "c2", "c3",  // round 1
      "a2", "b3", "b4", "c4", "c5", "c6",  // round 2 (c drains)
      "a3", "b5", "b6",                    // round 3 (b drains)
      "a4", "a5", "a6",                    // a alone
  };
  EXPECT_EQ(order, want);
}

TEST(ServiceTenant, AdmissionCapsRejectAtEnqueue) {
  DrrScheduler scheduler;
  scheduler.set_max_queue(3);
  const TenantHandle a = std::make_shared<TenantState>("a", 1, 2);
  const TenantHandle b = std::make_shared<TenantState>("b", 1, 0);
  const auto noop = [] {};
  EXPECT_TRUE(scheduler.try_enqueue(a, noop));
  EXPECT_TRUE(scheduler.try_enqueue(a, noop));
  // a's own cap (2) is full; the service-wide cap still has room for b.
  EXPECT_FALSE(scheduler.try_enqueue(a, noop));
  EXPECT_TRUE(scheduler.try_enqueue(b, noop));
  // Service-wide cap (3) is now full for everyone.
  EXPECT_FALSE(scheduler.try_enqueue(b, noop));
  EXPECT_EQ(scheduler.queued_total(), 3u);
  // Draining one admits one.
  scheduler.next()();
  EXPECT_TRUE(scheduler.try_enqueue(b, noop));
}

// --------------------------------------------- Service dispatch integration ---

TEST(ServiceTenant, SingleWorkerServiceDispatchesInDrrOrder) {
  Service service(ServiceConfig{/*workers=*/1});
  const InstanceHandle gate = service.load(gate_instance());
  const InstanceHandle small = service.load(small_instance());
  const TenantHandle a = service.tenant("a", 1);
  const TenantHandle b = service.tenant("b", 2);
  const TenantHandle c = service.tenant("c", 3);

  std::future<SolveResult> gate_future =
      service.submit(gate, SolverSpec::parse("auto"));
  wait_for_pickup(service, 1);

  std::mutex mu;
  std::vector<std::string> order;
  const SolverSpec spec = SolverSpec::parse("first_fit");
  for (int i = 1; i <= 3; ++i)
    for (const TenantHandle& t : {a, b, c})
      service.submit(
          small, spec,
          [&mu, &order, label = t->name() + std::to_string(i)](
              SolveResult, std::exception_ptr) {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(label);
          },
          t);
  EXPECT_EQ(gate_future.get().status, SolveStatus::kOk);
  // All nine callbacks ran on the single worker after the gate; wait for
  // the last one.
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == 9) break;
    }
    std::this_thread::yield();
  }
  const std::vector<std::string> want = {"a1", "b1", "b2", "c1", "c2",
                                         "c3", "a2", "b3", "a3"};
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, want);
}

TEST(ServiceTenant, EightClientStressCompletesProportionallyToWeights) {
  // Eight submitter threads feed three weighted tenants while a gate solve
  // pins the single worker; once the gate finishes every request is
  // already queued, so the drain is pure DRR: each full round completes
  // 1 alpha + 2 beta + 4 gamma, and the first 5 rounds (35 completions)
  // split exactly 5/10/20.
  constexpr int kClients = 8;
  constexpr int kPerClient = 30;
  Service service(ServiceConfig{/*workers=*/1});
  const InstanceHandle gate = service.load(gate_instance());
  const InstanceHandle small = service.load(small_instance());
  const std::vector<TenantHandle> tenants = {service.tenant("alpha", 1),
                                             service.tenant("beta", 2),
                                             service.tenant("gamma", 4)};

  std::future<SolveResult> gate_future =
      service.submit(gate, SolverSpec::parse("auto"));
  wait_for_pickup(service, 1);

  std::mutex mu;
  std::vector<std::string> order;
  const SolverSpec spec = SolverSpec::parse("first_fit");
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i)
    clients.emplace_back([&, i] {
      const TenantHandle& tenant = tenants[i % tenants.size()];
      for (int r = 0; r < kPerClient; ++r)
        service.submit(
            small, spec,
            [&mu, &order, name = tenant->name()](SolveResult result,
                                                 std::exception_ptr error) {
              ASSERT_EQ(error, nullptr);
              ASSERT_EQ(result.status, SolveStatus::kOk);
              std::lock_guard<std::mutex> lock(mu);
              order.push_back(name);
            },
            tenant);
    });
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(gate_future.get().status, SolveStatus::kOk);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (order.size() == kClients * kPerClient) break;
    }
    std::this_thread::yield();
  }

  std::lock_guard<std::mutex> lock(mu);
  int alpha = 0, beta = 0, gamma = 0;
  for (std::size_t i = 0; i < 35; ++i) {
    if (order[i] == "alpha") ++alpha;
    if (order[i] == "beta") ++beta;
    if (order[i] == "gamma") ++gamma;
  }
  EXPECT_EQ(alpha, 5);
  EXPECT_EQ(beta, 10);
  EXPECT_EQ(gamma, 20);
  EXPECT_EQ(
      service.metrics_snapshot().counter_value(obs::metric::kServiceShed), 0u);
}

// ------------------------------------------------------------- shed paths ---

TEST(ServiceTenant, ServiceWideCapShedsWithEmptySchedules) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 3;
  Service service(config);
  const InstanceHandle gate = service.load(gate_instance());
  const InstanceHandle small = service.load(small_instance());

  std::future<SolveResult> gate_future =
      service.submit(gate, SolverSpec::parse("auto"));
  wait_for_pickup(service, 1);

  // The worker is pinned and the queue is empty: of ten submits exactly
  // three are admitted and seven shed, synchronously at submit.
  const SolverSpec spec = SolverSpec::parse("first_fit");
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(service.submit(small, spec));
  std::size_t ok = 0, shed = 0;
  for (auto& future : futures) {
    const SolveResult result = future.get();
    if (result.status == SolveStatus::kOk) {
      ++ok;
      continue;
    }
    ASSERT_EQ(result.status, SolveStatus::kShedded);
    ++shed;
    // Shed results are whole: the requested solver's name, an untouched
    // instance-sized schedule, nothing partial.
    EXPECT_EQ(result.solver, "first_fit");
    EXPECT_FALSE(result.valid);
    EXPECT_EQ(result.schedule.assignment().size(), small->jobs());
    EXPECT_EQ(result.cost, 0);
    EXPECT_TRUE(result.ignored_options.empty());
    EXPECT_FALSE(result.cached);
  }
  EXPECT_EQ(gate_future.get().status, SolveStatus::kOk);
  EXPECT_EQ(ok, 3u);
  EXPECT_EQ(shed, 7u);
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceShed), 7u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCompleted),
            snap.counter_value(obs::metric::kServiceOk) +
                snap.counter_value(obs::metric::kServiceDeadlineExpired) +
                snap.counter_value(obs::metric::kServiceCancelled) +
                snap.counter_value(obs::metric::kServiceFailed) +
                snap.counter_value(obs::metric::kServiceShed));
}

TEST(ServiceTenant, PerTenantCapShedsOnlyThatTenant) {
  Service service(ServiceConfig{/*workers=*/1});
  const InstanceHandle gate = service.load(gate_instance());
  const InstanceHandle small = service.load(small_instance());
  const TenantHandle capped = service.tenant("capped", 1, /*max_queue=*/2);
  const TenantHandle open = service.tenant("open", 1);

  std::future<SolveResult> gate_future =
      service.submit(gate, SolverSpec::parse("auto"));
  wait_for_pickup(service, 1);

  const SolverSpec spec = SolverSpec::parse("first_fit");
  std::size_t capped_shed = 0;
  std::vector<std::future<SolveResult>> futures;
  for (int i = 0; i < 5; ++i)
    futures.push_back(service.submit(small, spec, capped));
  // The uncapped tenant is untouched by its neighbor's full queue.
  for (int i = 0; i < 5; ++i)
    futures.push_back(service.submit(small, spec, open));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveResult result = futures[i].get();
    if (result.status == SolveStatus::kShedded) {
      EXPECT_LT(i, 5u) << "only the capped tenant may shed";
      ++capped_shed;
    }
  }
  EXPECT_EQ(gate_future.get().status, SolveStatus::kOk);
  EXPECT_EQ(capped_shed, 3u);
  EXPECT_EQ(
      service.metrics_snapshot().counter_value(obs::metric::kServiceShed), 3u);
}

TEST(ServiceTenant, CallbackShedIsDeliveredInline) {
  ServiceConfig config;
  config.workers = 1;
  config.max_queue = 1;
  Service service(config);
  const InstanceHandle gate = service.load(gate_instance());
  const InstanceHandle small = service.load(small_instance());
  std::future<SolveResult> gate_future =
      service.submit(gate, SolverSpec::parse("auto"));
  wait_for_pickup(service, 1);

  std::future<SolveResult> queued =
      service.submit(small, SolverSpec::parse("first_fit"));
  bool delivered = false;
  service.submit(small, SolverSpec::parse("first_fit"),
                 [&delivered](SolveResult result, std::exception_ptr error) {
                   EXPECT_EQ(error, nullptr);
                   EXPECT_EQ(result.status, SolveStatus::kShedded);
                   delivered = true;
                 });
  // Inline on the submitting thread, before submit() returned.
  EXPECT_TRUE(delivered);
  EXPECT_EQ(gate_future.get().status, SolveStatus::kOk);
  EXPECT_EQ(queued.get().status, SolveStatus::kOk);
}

// -------------------------------------------------- default-tenant identity ---

TEST(ServiceTenant, DefaultTenantMatchesRunSolverExactly) {
  const Instance inst = small_instance(/*n=*/100, /*seed=*/17);
  std::vector<SolverSpec> specs;
  for (const char* name : {"auto", "first_fit", "local_search"})
    specs.push_back(SolverSpec::parse(name));

  Service service(ServiceConfig{/*workers=*/2});
  const InstanceHandle handle = service.load(inst);
  for (const SolverSpec& spec : specs) {
    const SolveResult baseline = run_solver(inst, spec);
    const SolveResult plain = service.submit(handle, spec).get();
    // The explicit "default" tenant is the same tenant a submit without one
    // uses, not a namesake.
    const SolveResult named =
        service.submit(handle, spec, service.tenant("default")).get();
    for (const SolveResult* result : {&plain, &named}) {
      EXPECT_EQ(result->status, SolveStatus::kOk) << spec.to_string();
      EXPECT_EQ(result->schedule.assignment(),
                baseline.schedule.assignment()) << spec.to_string();
      EXPECT_EQ(result->cost, baseline.cost) << spec.to_string();
      EXPECT_EQ(result->valid, baseline.valid) << spec.to_string();
      EXPECT_FALSE(result->cached) << spec.to_string();
    }
  }
  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceShed), 0u);
  // Caching is off by default.
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheHits), 0u);
  EXPECT_EQ(snap.counter_value(obs::metric::kServiceCacheMisses), 0u);
}

TEST(ServiceTenant, TenantRegistrationValidatesAndUpdates) {
  Service service(ServiceConfig{/*workers=*/1});
  EXPECT_THROW(service.tenant(""), std::invalid_argument);
  EXPECT_THROW(service.tenant("t", 0), std::invalid_argument);
  const TenantHandle first = service.tenant("t", 2, 4);
  EXPECT_EQ(first->weight(), 2);
  EXPECT_EQ(first->max_queue(), 4u);
  // Re-registering returns the same tenant with updated parameters.
  const TenantHandle second = service.tenant("t", 5, 0);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->weight(), 5);
  EXPECT_EQ(first->max_queue(), 0u);
  // A submit without a workload is rejected whichever tenant it names.
  EXPECT_THROW(service.submit(InstanceHandle{}, SolverSpec{}, first),
               std::invalid_argument);
}

}  // namespace
}  // namespace busytime
