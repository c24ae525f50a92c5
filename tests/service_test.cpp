// Service facade: requests against cached InstanceHandles must be
// bit-identical to sequential run_solver for every registered solver at
// every worker count and through every entry point — future submit,
// callback submit, tenant submit, blocking solve — with identical service.*
// counters (the determinism contract extended to the serving layer); warm
// handles must skip re-classification (cache counters), and per-request
// deadlines / cancellation tokens must complete requests with the right
// SolveStatus instead of throwing.  The ServiceFacade suite is a
// ThreadSanitizer CI target.
#include <gtest/gtest.h>

#include <exception>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "obs/metrics.hpp"
#include "online/event.hpp"
#include "service/service.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"
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

/// Every registered solver that can run on `inst` with the given budget
/// default, as ready-to-submit specs.
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

std::uint64_t counter(const Service& service, const char* name) {
  return service.metrics_snapshot().counter_value(name);
}

/// Every service.* counter, by name.
std::map<std::string, std::uint64_t> service_counters(const Service& service) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : service.metrics_snapshot().counters)
    if (name.rfind("service.", 0) == 0) out[name] = value;
  return out;
}

std::map<std::string, std::uint64_t> counter_deltas(
    const std::map<std::string, std::uint64_t>& before,
    const std::map<std::string, std::uint64_t>& after) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : after) out[name] = value - before.at(name);
  return out;
}

/// Bit-identity modulo wall_ms (the only timing-dependent field).
void expect_same_result(const SolveResult& got, const SolveResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.solver, want.solver) << label;
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.schedule.assignment(), want.schedule.assignment()) << label;
  EXPECT_EQ(got.cost, want.cost) << label;
  EXPECT_EQ(got.throughput, want.throughput) << label;
  EXPECT_EQ(got.valid, want.valid) << label;
  EXPECT_EQ(got.trace, want.trace) << label;
  EXPECT_TRUE(got.stats == want.stats) << label;
  EXPECT_EQ(got.ignored_options, want.ignored_options) << label;
  EXPECT_DOUBLE_EQ(got.ratio_to_lower_bound, want.ratio_to_lower_bound) << label;
}

// ------------------------------------------------ concurrency determinism ---

/// Instance families that together make every registered solver applicable
/// (trace for the general/online portfolio, small clique for the matching /
/// set-cover / exact / throughput solvers, proper staircase for BestCut,
/// one-sided for the Observation 3.1 greedy).
std::vector<Instance> family_instances() {
  std::vector<Instance> out;
  out.push_back(test_trace());
  GenParams clique;
  clique.n = 14;
  clique.g = 2;
  clique.seed = 3;
  out.push_back(gen_clique(clique));
  GenParams proper;
  proper.n = 60;
  proper.g = 3;
  proper.seed = 4;
  out.push_back(gen_proper(proper));
  GenParams proper_clique;
  proper_clique.n = 30;
  proper_clique.g = 3;
  proper_clique.seed = 6;
  out.push_back(gen_proper_clique(proper_clique));
  GenParams one_sided;
  one_sided.n = 40;
  one_sided.g = 4;
  one_sided.seed = 5;
  out.push_back(gen_one_sided(one_sided));
  return out;
}

/// The public request entry points.  Each is one path through the same
/// core, so each must produce the same results and the same counters.
enum class Entry { kFuture, kCallback, kTenant, kSolve };
constexpr Entry kEntries[] = {Entry::kFuture, Entry::kCallback, Entry::kTenant,
                              Entry::kSolve};

std::string entry_name(Entry entry) {
  switch (entry) {
    case Entry::kFuture: return "future";
    case Entry::kCallback: return "callback";
    case Entry::kTenant: return "tenant";
    case Entry::kSolve: return "solve";
  }
  return "?";
}

/// One request's outcome: its result, or whether it threw.
struct Outcome {
  SolveResult result;
  bool threw = false;
};

/// Sends `specs` against `handle` through `entry` and returns the outcomes
/// in spec order.  The submit entry points put every request in flight
/// before waiting on any; blocking solves run one after another.
std::vector<Outcome> send(Service& service, Entry entry,
                          const InstanceHandle& handle,
                          const std::vector<SolverSpec>& specs) {
  std::vector<Outcome> out(specs.size());
  std::vector<std::future<SolveResult>> futures;
  for (const SolverSpec& spec : specs) {
    switch (entry) {
      case Entry::kFuture:
        futures.push_back(service.submit(handle, spec));
        break;
      case Entry::kTenant:
        futures.push_back(service.submit(handle, spec, service.tenant("t", 2)));
        break;
      case Entry::kCallback: {
        auto promise = std::make_shared<std::promise<SolveResult>>();
        futures.push_back(promise->get_future());
        service.submit(handle, spec,
                       [promise](SolveResult result, std::exception_ptr error) {
                         if (error != nullptr)
                           promise->set_exception(error);
                         else
                           promise->set_value(std::move(result));
                       });
        break;
      }
      case Entry::kSolve: {
        std::promise<SolveResult> inline_result;
        try {
          inline_result.set_value(service.solve(handle, spec));
        } catch (...) {
          inline_result.set_exception(std::current_exception());
        }
        futures.push_back(inline_result.get_future());
        break;
      }
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    try {
      out[i].result = futures[i].get();
    } catch (...) {
      // The exception object is shared with the worker that threw it, and
      // its refcount lives in uninstrumented libstdc++: reading it here
      // would look like a race to ThreadSanitizer.  Its type is pinned by
      // ErrorsPropagateThroughFutures.
      out[i].threw = true;
    }
  }
  return out;
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

/// Blocks until `picked_up` queued requests have left the queue (their
/// submit-to-pickup wait lands in service.queue_wait_us).
void wait_for_pickup(const Service& service, std::uint64_t picked_up) {
  for (;;) {
    const obs::MetricsSnapshot snap = service.metrics_snapshot();
    const obs::HistogramSnapshot* wait =
        snap.histogram(obs::metric::kServiceQueueWaitUs);
    if (wait != nullptr && wait->count >= picked_up) return;
    std::this_thread::yield();
  }
}

TEST(ServiceFacade, ConcurrentSubmitsMatchSequentialRunSolver) {
  const std::vector<Instance> instances = family_instances();

  // Every registered solver must be exercised by at least one family.
  std::size_t covered = 0;
  for (const SolverInfo* info : SolverRegistry::instance().all())
    for (const Instance& inst : instances)
      if (info->applicable(inst)) {
        ++covered;
        break;
      }
  EXPECT_EQ(covered, SolverRegistry::instance().size())
      << "some registered solver is applicable to no test family";

  for (const Instance& inst : instances) {
    const std::vector<SolverSpec> specs = runnable_specs(inst, /*budget=*/800);
    std::vector<SolveResult> baseline;
    for (const SolverSpec& spec : specs) baseline.push_back(run_solver(inst, spec));

    for (const int workers : {1, 2, 8}) {
      std::map<std::string, std::uint64_t> future_deltas;
      for (const Entry entry : kEntries) {
        const std::string where =
            entry_name(entry) + " workers=" + std::to_string(workers);
        Service service(ServiceConfig{workers});
        const InstanceHandle handle = service.load(inst);
        const auto before = service_counters(service);
        // Two rounds through the shared handle: the second is fully warm.
        for (int round = 0; round < 2; ++round) {
          const std::vector<Outcome> outcomes =
              send(service, entry, handle, specs);
          for (std::size_t i = 0; i < specs.size(); ++i) {
            const std::string label =
                specs[i].name + " " + where + " round=" + std::to_string(round);
            EXPECT_FALSE(outcomes[i].threw) << label;
            expect_same_result(outcomes[i].result, baseline[i], label);
          }
        }
        const auto deltas = counter_deltas(before, service_counters(service));
        EXPECT_EQ(deltas.at(obs::metric::kServiceRequests), 2 * specs.size())
            << where;
        EXPECT_EQ(deltas.at(obs::metric::kServiceCompleted), 2 * specs.size())
            << where;
        EXPECT_EQ(deltas.at(obs::metric::kServiceOk), 2 * specs.size()) << where;
        EXPECT_EQ(deltas.at(obs::metric::kServiceFailed), 0u) << where;
        if (entry == Entry::kFuture)
          future_deltas = deltas;
        else
          EXPECT_EQ(deltas, future_deltas) << where;
      }
    }
  }

  // One request of every other terminal kind, through each entry point, on
  // a cache-enabled single-worker Service capped at one queued request: a
  // shed, a cache hit, a deadline trip and a throwing spec.
  const SolverSpec shed_spec = SolverSpec::parse("local_search");
  const std::vector<SolverSpec> later = {
      SolverSpec::parse("first_fit"),  // hits the filler's cached result
      SolverSpec::parse("auto:deadline_ms=0.000001"),
      SolverSpec::parse("no_such_solver"),
  };
  std::vector<Outcome> future_outcomes;
  std::map<std::string, std::uint64_t> future_deltas;
  for (const Entry entry : kEntries) {
    const std::string where = entry_name(entry);
    ServiceConfig config;
    config.workers = 1;
    config.max_queue = 1;
    config.cache_bytes = 32u << 20;
    Service service(config);
    const InstanceHandle gate = service.load(gate_instance());
    const InstanceHandle handle = service.load(instances[0]);
    const auto before = service_counters(service);

    // The gate pins the only worker and the filler takes the only queue
    // slot, so the next queued request sheds.  A blocking solve runs inline
    // and is never shed.
    std::future<SolveResult> gate_future =
        service.submit(gate, SolverSpec::parse("auto"));
    wait_for_pickup(service, 1);
    std::future<SolveResult> filler =
        service.submit(handle, SolverSpec::parse("first_fit"));
    std::vector<Outcome> outcomes = send(service, entry, handle, {shed_spec});
    EXPECT_EQ(gate_future.get().status, SolveStatus::kOk) << where;
    EXPECT_EQ(filler.get().status, SolveStatus::kOk) << where;
    // One at a time: a second queued request would find the slot taken.
    for (const SolverSpec& spec : later)
      outcomes.push_back(send(service, entry, handle, {spec}).front());
    const auto deltas = counter_deltas(before, service_counters(service));

    ASSERT_EQ(outcomes.size(), 4u);
    if (entry == Entry::kSolve) {
      EXPECT_FALSE(outcomes[0].threw) << where;
      expect_same_result(outcomes[0].result,
                         run_solver(instances[0], shed_spec), where);
    } else {
      EXPECT_EQ(outcomes[0].result.status, SolveStatus::kShedded) << where;
      EXPECT_EQ(outcomes[0].result.solver, shed_spec.name) << where;
      EXPECT_FALSE(outcomes[0].result.valid) << where;
    }
    EXPECT_TRUE(outcomes[1].result.cached) << where;
    EXPECT_EQ(outcomes[1].result.status, SolveStatus::kOk) << where;
    EXPECT_EQ(outcomes[2].result.status, SolveStatus::kDeadline) << where;
    EXPECT_TRUE(outcomes[3].threw) << where;

    if (entry == Entry::kFuture) {
      future_outcomes = outcomes;
      future_deltas = deltas;
      EXPECT_EQ(deltas.at(obs::metric::kServiceShed), 1u);
      EXPECT_EQ(deltas.at(obs::metric::kServiceCacheHits), 1u);
      EXPECT_EQ(deltas.at(obs::metric::kServiceDeadlineExpired), 1u);
      EXPECT_EQ(deltas.at(obs::metric::kServiceFailed), 1u);
      continue;
    }
    for (std::size_t i = entry == Entry::kSolve ? 1 : 0; i < outcomes.size();
         ++i) {
      const std::string label = where + " #" + std::to_string(i);
      EXPECT_EQ(outcomes[i].threw, future_outcomes[i].threw) << label;
      expect_same_result(outcomes[i].result, future_outcomes[i].result, label);
      EXPECT_EQ(outcomes[i].result.cached, future_outcomes[i].result.cached)
          << label;
    }
    auto expected = future_deltas;
    if (entry == Entry::kSolve) {
      // The inline solve of the shed spec: a cache miss that completes ok.
      expected[obs::metric::kServiceShed] -= 1;
      expected[obs::metric::kServiceOk] += 1;
      expected[obs::metric::kServiceCacheMisses] += 1;
    }
    EXPECT_EQ(deltas, expected) << where;
  }
}

TEST(ServiceFacade, ManyClientThreadsShareOneHandle) {
  const Instance inst = test_trace(120, /*seed=*/11);
  const std::vector<SolverSpec> specs = runnable_specs(inst, /*budget=*/600);

  std::vector<SolveResult> baseline;
  for (const SolverSpec& spec : specs) baseline.push_back(run_solver(inst, spec));

  Service service(ServiceConfig{4});
  const InstanceHandle handle = service.load(inst);
  constexpr int kClients = 8;
  std::vector<std::vector<SolveResult>> per_client(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      // Every client walks the portfolio from a different offset, so
      // distinct solvers run concurrently against the shared handle.
      for (std::size_t k = 0; k < specs.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(c)) % specs.size();
        per_client[c].push_back(service.solve(handle, specs[i]));
      }
    });
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c)
    for (std::size_t k = 0; k < specs.size(); ++k) {
      const std::size_t i = (k + static_cast<std::size_t>(c)) % specs.size();
      expect_same_result(per_client[c][k], baseline[i],
                        specs[i].name + " client=" + std::to_string(c));
    }
}

TEST(ServiceFacade, EventTraceHandlesMatchRunSolver) {
  CancelParams cp;
  cp.cancel_rate = 0.2;
  cp.seed = 5;
  const EventTrace trace = with_random_cancels(test_trace(140, /*seed=*/5), cp);
  ASSERT_TRUE(trace.has_cancels());

  Service service(ServiceConfig{2});
  const InstanceHandle handle = service.load(trace);
  for (const char* name : {"online_first_fit", "online_best_fit", "epoch_hybrid",
                           "auto", "first_fit"}) {
    SolverSpec spec;
    spec.name = name;
    expect_same_result(service.submit(handle, spec).get(),
                      run_solver(trace, spec), name);
  }
}

// --------------------------------------------------- cached instance state ---

TEST(ServiceFacade, WarmHandleSkipsReclassification) {
  const Instance inst = test_trace(100, /*seed=*/3);
  Service service(ServiceConfig{2});
  const InstanceHandle handle = service.load(inst);
  EXPECT_EQ(handle->view_builds(), 0u) << "view must be lazy";

  const SolverSpec auto_spec = SolverSpec::parse("auto");
  const SolveResult cold = service.solve(handle, auto_spec);
  EXPECT_EQ(handle->view_builds(), 1u);
  const std::uint64_t hits_after_cold = handle->view_hits();

  const SolveResult warm = service.solve(handle, auto_spec);
  EXPECT_EQ(handle->view_builds(), 1u) << "warm re-solve must not re-classify";
  EXPECT_GT(handle->view_hits(), hits_after_cold);
  expect_same_result(warm, cold, "warm vs cold");

  // A g= override rebuilds the instance, so the cached view must NOT be
  // used (its classification describes the original capacity).
  const SolveResult overridden =
      service.solve(handle, SolverSpec::parse("auto:g=2"));
  EXPECT_EQ(overridden.bounds.g, 2);
  EXPECT_EQ(handle->view_builds(), 1u);
}

TEST(ServiceFacade, HandlesAreIndependent) {
  Service service;
  const InstanceHandle a = service.load(test_trace(60, /*seed=*/1));
  const InstanceHandle b = service.load(test_trace(60, /*seed=*/2));
  service.solve(a, SolverSpec::parse("auto"));
  EXPECT_EQ(a->view_builds(), 1u);
  EXPECT_EQ(b->view_builds(), 0u);
  EXPECT_EQ(counter(service, obs::metric::kServiceHandlesLoaded), 2u);
}

// ------------------------------------------------------- request controls ---

TEST(ServiceFacade, ExpiredDeadlineCompletesWithDeadlineStatus) {
  const Instance inst = test_trace(100, /*seed=*/9);
  Service service(ServiceConfig{2});
  const InstanceHandle handle = service.load(inst);

  SolverSpec spec = SolverSpec::parse("auto:deadline_ms=0.000001");
  const SolveResult result = service.submit(handle, spec).get();
  EXPECT_EQ(result.status, SolveStatus::kDeadline);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.cost, 0);
  EXPECT_EQ(result.schedule.throughput(), 0);
  EXPECT_EQ(result.schedule.assignment().size(), inst.size());
  EXPECT_NE(result.summary().find("deadline"), std::string::npos);
  EXPECT_EQ(counter(service, obs::metric::kServiceDeadlineExpired), 1u);

  // A generous deadline never trips.
  spec.options.deadline_ms = 60000;
  EXPECT_EQ(service.submit(handle, spec).get().status, SolveStatus::kOk);
}

TEST(ServiceFacade, NanDeadlineSetDirectlyMeansNoDeadline) {
  // set() and the wire reader reject a NaN deadline, but options filled in
  // directly can still carry one.  It must mean "no deadline" and never
  // reach the integer conversion of the deadline instant, where it is UB.
  const Instance inst = test_trace(100, /*seed=*/9);
  Service service(ServiceConfig{2});
  const InstanceHandle handle = service.load(inst);
  SolverSpec spec;
  spec.name = "auto";
  spec.options.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  const SolveResult result = service.submit(handle, spec).get();
  EXPECT_EQ(result.status, SolveStatus::kOk);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(counter(service, obs::metric::kServiceDeadlineExpired), 0u);
}

TEST(ServiceFacade, CancelTokenCompletesWithCancelledStatus) {
  const Instance inst = test_trace(100, /*seed=*/13);
  Service service(ServiceConfig{1});
  const InstanceHandle handle = service.load(inst);

  SolverSpec spec = SolverSpec::parse("auto");
  spec.cancel = CancelToken::make();
  spec.cancel.request_cancel();
  const SolveResult result = service.submit(handle, spec).get();
  EXPECT_EQ(result.status, SolveStatus::kCancelled);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(counter(service, obs::metric::kServiceCancelled), 1u);

  // Cancellation wins over an expired deadline (it is checked first).
  SolverSpec both = SolverSpec::parse("first_fit:deadline_ms=0.000001");
  both.cancel = spec.cancel;
  EXPECT_EQ(service.solve(handle, both).status, SolveStatus::kCancelled);

  // An inert (default) token never cancels; an untriggered one either.
  SolverSpec fresh = SolverSpec::parse("auto");
  fresh.cancel = CancelToken::make();
  EXPECT_EQ(service.solve(handle, fresh).status, SolveStatus::kOk);
}

TEST(ServiceFacade, DeadlineWorksThroughFreeRunSolver) {
  const Instance inst = test_trace(80, /*seed=*/21);
  const SolveResult result =
      run_solver(inst, SolverSpec::parse("first_fit:deadline_ms=0.000001"));
  EXPECT_EQ(result.status, SolveStatus::kDeadline);
  EXPECT_FALSE(result.valid);
}

// ------------------------------------------------------------- error paths ---

TEST(ServiceFacade, ErrorsPropagateThroughFutures) {
  Service service(ServiceConfig{1});
  const InstanceHandle handle = service.load(test_trace(40, /*seed=*/2));

  EXPECT_THROW(service.submit(handle, SolverSpec::parse("no_such_solver")).get(),
               std::invalid_argument);
  SolverSpec budgetless = SolverSpec::parse("tput_clique");
  EXPECT_THROW(service.submit(handle, budgetless).get(), SpecError);
  EXPECT_EQ(counter(service, obs::metric::kServiceFailed), 2u);

  EXPECT_THROW(service.submit(nullptr, SolverSpec::parse("auto")),
               std::invalid_argument);
}

// --------------------------------------------------------- ignored options ---

TEST(ServiceFacade, IgnoredOptionsAreRecorded) {
  const Instance inst = test_trace(50, /*seed=*/4);

  // Options a solver never reads are recorded, in documented key order.
  const SolveResult offline =
      run_solver(inst, SolverSpec::parse("first_fit:epoch=256,seed=9"));
  EXPECT_EQ(offline.ignored_options,
            (std::vector<std::string>{"epoch", "seed"}));

  // budget= on a non-budgeted solver is ignored; on a budgeted one consumed.
  EXPECT_EQ(run_solver(inst, SolverSpec::parse("first_fit:budget=500"))
                .ignored_options,
            std::vector<std::string>{"budget"});
  GenParams clique;
  clique.n = 20;
  clique.g = 3;
  clique.seed = 8;
  EXPECT_TRUE(run_solver(gen_clique(clique),
                         SolverSpec::parse("tput_clique:budget=500"))
                  .ignored_options.empty());

  // epoch= is consumed by the epoch-hybrid policy but ignored by first-fit
  // streaming; improve= only applies to offline/exact solvers.
  EXPECT_TRUE(run_solver(inst, SolverSpec::parse("epoch_hybrid:epoch=256"))
                  .ignored_options.empty());
  EXPECT_EQ(run_solver(inst, SolverSpec::parse("online_first_fit:epoch=256,improve=1"))
                .ignored_options,
            (std::vector<std::string>{"epoch", "improve"}));

  // Universally consumed keys never show up — including the threads
  // parallelism knob, which the CLI copies into every spec while the exec
  // process default already honors it.
  EXPECT_TRUE(run_solver(inst, SolverSpec::parse("auto:g=2,threads=2,deadline_ms=60000"))
                  .ignored_options.empty());
  EXPECT_TRUE(run_solver(inst, SolverSpec::parse("first_fit:improve=1,threads=2"))
                  .ignored_options.empty());
}

TEST(ServiceFacade, SpecRoundTripsDeadline) {
  const SolverSpec spec = SolverSpec::parse("auto:deadline_ms=250");
  EXPECT_DOUBLE_EQ(spec.options.deadline_ms, 250);
  EXPECT_EQ(spec.to_string(), "auto:deadline_ms=250");
  EXPECT_THROW(SolverSpec::parse("auto:deadline_ms=-1"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:deadline_ms=abc"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:deadline_ms=inf"), SpecError);
  EXPECT_THROW(SolverSpec::parse("auto:deadline_ms=nan"), SpecError);
  // Absurdly large finite deadlines mean "no deadline", never overflow.
  EXPECT_EQ(run_solver(test_trace(30, /*seed=*/1),
                       SolverSpec::parse("first_fit:deadline_ms=1e300"))
                .status,
            SolveStatus::kOk);
  // Sub-microsecond deadlines must survive the round trip (a formatter
  // that truncates to "0" would turn them into "no deadline").
  const SolverSpec tiny = SolverSpec::parse("auto:deadline_ms=0.000001");
  EXPECT_DOUBLE_EQ(SolverSpec::parse(tiny.to_string()).options.deadline_ms,
                   1e-6);
}

}  // namespace
}  // namespace busytime
