// The serving facade: a long-lived busytime::Service that owns the worker
// pool and the registry handle, and turns the one-shot run_solver free
// functions into a request path shaped for sustained traffic.
//
// The one-shot entry points rebuild everything per call — classification,
// component decomposition, pool state.  A Service instead keeps that state
// alive across requests:
//
//  * load() wraps a workload into a ref-counted InstanceHandle whose
//    decomposition (components + per-component core/classify, the
//    InstanceView) is computed once, on first use, and shared read-only by
//    every subsequent request — warm re-solves skip re-classification
//    entirely (observable via the handle's cache counters);
//  * submit() enqueues a request onto the Service's own exec::ThreadPool
//    and reports its completion to a callback; the future-returning
//    submit() is an adapter over it, and solve() is the blocking wrapper
//    (inline on the caller thread, no pool hop);
//  * per-request controls — SolverOptions::deadline_ms and
//    SolverSpec::cancel — are resolved at submission (queue wait counts
//    against the deadline) and honored at component boundaries; tripped
//    requests complete with SolveStatus::kDeadline / kCancelled instead of
//    throwing.
//
// The multi-tenant serving tier on top (all opt-in, defaults preserve the
// single-tenant FIFO behavior exactly):
//
//  * a byte-capped LRU result cache (ServiceConfig::cache_bytes > 0) keyed
//    on (InstanceState::fingerprint(), SolverSpec::canonical_key()) —
//    repeated specs against a warm handle are answered at submit time with
//    a copy of the stored kOk result (wall_ms = 0, cached = true),
//    bit-identical to a fresh solve by the determinism contract; queued
//    requests consult the cache again at dispatch, so identical requests
//    submitted together collapse to one solve;
//  * weighted-fair scheduling — tenant(name, weight) returns a
//    TenantHandle, submit()'s tenant argument enqueues into that tenant's
//    FIFO queue, and up to `workers` pump tasks drain them in
//    deficit-round-robin order (service/tenant_queue.hpp), so backlogged
//    tenants complete work proportionally to their weights;
//  * admission control — per-service (ServiceConfig::max_queue) and
//    per-tenant queue-depth caps reject at submit time with
//    SolveStatus::kShedded (empty schedule, never partial; counted in
//    service.shed).  Blocking solve() runs inline and is never queued,
//    cached hits bypass the queue too — neither can be shed.
//
// Concurrency contract (the determinism contract extended to the facade):
// concurrent submits against shared handles produce results bit-identical
// to sequential run_solver calls, for every registered solver, at every
// worker count; a cached result is bit-identical to the computed one
// modulo wall_ms/cached.  Handles are immutable after load; every mutable
// Service member is an atomic counter, the cache/scheduler behind their
// mutexes, or the pool's own queue.
//
// The free run_solver(...) function is a thin shim over
// Service::process_default(), so one-shot callers get the same facade
// (and its request accounting) without holding a Service themselves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/registry.hpp"
#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/instance_view.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "online/event.hpp"
#include "service/result_cache.hpp"
#include "service/tenant_queue.hpp"

namespace busytime {

/// Immutable per-workload state cached across requests: the event trace
/// (base instance + retractions) and the lazily-built InstanceView of the
/// solve target.  Shared read-only by every request thread; the only
/// mutations are the one-time view build and fingerprint (std::call_once)
/// and the counters.
class InstanceState {
 public:
  /// A non-null `registry` (the owning Service's) additionally receives
  /// the service-wide service.view_builds / service.view_hits counters;
  /// the shared_ptr keeps that registry alive even when a handle outlives
  /// its Service.
  explicit InstanceState(
      EventTrace trace,
      std::shared_ptr<obs::MetricsRegistry> registry = nullptr);

  InstanceState(const InstanceState&) = delete;
  InstanceState& operator=(const InstanceState&) = delete;

  const EventTrace& trace() const noexcept { return trace_; }
  const Instance& base() const noexcept { return trace_.base(); }
  /// The instance requests are measured against: the residual workload
  /// (base() when the trace carries no retractions).
  const Instance& solve_target() const { return trace_.residual(); }

  std::size_t jobs() const noexcept { return trace_.size(); }
  int g() const noexcept { return trace_.g(); }

  /// Stable 64-bit FNV-1a fingerprint of the workload's canonical text
  /// bytes (io/serialize's event-trace form), computed on the first call
  /// (std::call_once) — the Service asks only for a result-cache key, so
  /// a Service without a cache never pays for it.  The instance half of
  /// the result-cache key: equal workloads hash equal across handles,
  /// Services, and processes.
  std::uint64_t fingerprint() const;

  /// The memoized decomposition (components, sub-instances, per-component
  /// classification) of solve_target().  Built exactly once, on first use,
  /// on the exec process default worker count; concurrent callers block on
  /// the build and then share it read-only.
  const InstanceView& view() const {
    bool built_now = false;
    std::call_once(view_once_, [&] {
      view_ = std::make_unique<const InstanceView>(solve_target(), /*threads=*/0);
      built_now = true;
    });
    if (built_now) {
      view_builds_.fetch_add(1, std::memory_order_relaxed);
      if (registry_) registry_->add<obs::metric::kServiceViewBuilds>();
    } else {
      view_hits_.fetch_add(1, std::memory_order_relaxed);
      if (registry_) registry_->add<obs::metric::kServiceViewHits>();
    }
    return *view_;
  }

  /// Times view() found the decomposition already cached — each warm
  /// re-solve that skipped re-classification counts one hit.  Per-handle
  /// shim over the registry-backed service.view_hits aggregate.
  std::uint64_t view_hits() const noexcept {
    return view_hits_.load(std::memory_order_relaxed);
  }
  /// Times view() actually built the decomposition (0 until first use,
  /// 1 after — the view is never rebuilt).  Per-handle shim over the
  /// registry-backed service.view_builds aggregate.
  std::uint64_t view_builds() const noexcept {
    return view_builds_.load(std::memory_order_relaxed);
  }

 private:
  EventTrace trace_;
  mutable std::once_flag fingerprint_once_;
  mutable std::uint64_t fingerprint_ = 0;
  /// The owning Service's registry (null: count nothing), kept alive for
  /// handles that outlive their Service.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  mutable std::once_flag view_once_;
  mutable std::unique_ptr<const InstanceView> view_;
  mutable std::atomic<std::uint64_t> view_hits_{0};
  mutable std::atomic<std::uint64_t> view_builds_{0};
};

/// Ref-counted handle to cached instance state.  Copies share the state;
/// the state (and the InstanceView inside it) lives until the last handle
/// and the last in-flight request referencing it are gone.
using InstanceHandle = std::shared_ptr<const InstanceState>;

struct ServiceConfig {
  /// Request-execution workers of the Service's own pool (0 = the exec
  /// process default).  Workers start lazily on the first submit();
  /// blocking solve() calls never spawn threads.  Worker count never
  /// changes results, only throughput.
  int workers = 0;
  /// Byte cap of the result cache; 0 (the default) disables caching
  /// entirely — no lookups, no cache_miss counts, behavior identical to
  /// the pre-cache Service.
  std::size_t cache_bytes = 0;
  /// Service-wide cap on queued (submitted, not yet executing) requests;
  /// 0 = unlimited.  Submits over the cap complete immediately with
  /// SolveStatus::kShedded.
  std::size_t max_queue = 0;
};

class Service {
 public:
  explicit Service(ServiceConfig config = {});
  /// Drains the queue: every submitted request runs to completion (its
  /// callback runs) before the workers join.
  ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Wraps a workload into cached instance state.  A plain Instance
  /// converts to an EventTrace without retractions.
  InstanceHandle load(EventTrace trace);

  /// Names a tenant, creating it on first use; repeat calls update the
  /// weight (DRR shares; >= 1, throws std::invalid_argument otherwise) and
  /// the per-tenant queued-request cap (0 = unlimited).  The returned
  /// handle addresses the tenant in submit(); the Service keeps every
  /// tenant alive for its own lifetime.  "default" names the tenant a
  /// submit without one uses.
  TenantHandle tenant(const std::string& name, int weight = 1,
                      std::size_t max_queue = 0);

  /// Completion callback of submit().  Exactly one of the arguments is
  /// meaningful: a result on success (any SolveStatus), or a non-null
  /// exception_ptr when the request threw.
  using SolveCallback =
      std::function<void(SolveResult, std::exception_ptr)>;

  /// Enqueues one request under `tenant` (null = the default tenant),
  /// where it competes for workers by the tenant's weight.  The deadline
  /// clock starts now — queue wait counts — and the request keeps the
  /// handle alive.  `done` runs exactly once, on the worker that ran the
  /// request, with the result (any SolveStatus: deadline/cancel trips
  /// complete normally) or the exception the request threw (unknown
  /// solver, NotApplicableError, SpecError).  A request admission control
  /// rejects (ServiceConfig::max_queue, tenant() caps) completes inline
  /// with SolveStatus::kShedded, and one the result cache answers
  /// completes inline with that answer (cached = true); neither takes a
  /// pool worker.  `done` must not throw, and must not block on another
  /// request of this Service (the worker it runs on may be the one that
  /// request needs).
  void submit(InstanceHandle handle, SolverSpec spec, SolveCallback done,
              const TenantHandle& tenant = nullptr);

  /// submit() with the outcome delivered through a future: get() returns
  /// the result or rethrows the request's exception.  The same rule holds:
  /// do not wait on it from inside another request of this Service.
  std::future<SolveResult> submit(InstanceHandle handle, SolverSpec spec,
                                  const TenantHandle& tenant = nullptr);

  /// Blocking wrapper: runs the request inline on the calling thread (no
  /// pool hop), same semantics as submit(...).get() except that inline
  /// requests are never queued and therefore never shed.  Consults and
  /// fills the result cache like submit.
  SolveResult solve(const InstanceHandle& handle, const SolverSpec& spec);

  /// Non-owning one-shot path: solve a borrowed workload without building
  /// handle state (what the free run_solver shim calls).  No decomposition
  /// is cached across calls, and the result cache is not consulted.
  SolveResult solve(const EventTrace& workload, const SolverSpec& spec);

  /// Resolved worker count of the request pool.
  int workers() const noexcept { return workers_; }

  /// This Service's metric registry: every request executed here counts
  /// into it (service.*, solve.*, online.* — see docs/OBSERVABILITY.md).
  obs::MetricsRegistry& metrics() const noexcept { return *registry_; }
  /// A merged point-in-time snapshot, with the request pool's current
  /// busy/idle/queue accounting published into the exec.* gauges first.
  /// Counters are individually atomic, not read under one lock, so the
  /// snapshot is exact once the Service is idle.
  obs::MetricsSnapshot metrics_snapshot() const;
  /// The raw pool accounting sample (what the exec.* gauges are fed from).
  exec::PoolStats pool_stats() const { return pool_.stats(); }

  /// The process-wide Service behind the free run_solver function.
  /// Never destroyed (same discipline as exec::ThreadPool::shared()).
  static Service& process_default();

 private:
  /// Status bookkeeping on the way out.
  SolveResult record(SolveResult result) noexcept;

  /// The result-cache key of a cache-eligible request; nullopt when the
  /// cache is off, the request is traced (the span tree is the product),
  /// or its cancel token already fired (it must keep reporting kCancelled).
  std::optional<ResultCache::Key> cache_key(const InstanceState& state,
                                            const SolverSpec& spec) const;
  /// Cache consult; counts a hit (a miss is counted by the caller, where
  /// it becomes final).  Entries are shared across specs that differ only
  /// in ignored options, so a hit reports the *hitting* spec's ignored
  /// keys.
  bool cache_find(const ResultCache::Key& key, const SolverSpec& spec,
                  SolveResult* hit);
  /// Stores a completed kOk result and publishes eviction/byte metrics.
  void cache_store(const ResultCache::Key& key, const SolveResult& result);

  /// The handle-request tail shared by submit's pool task (`queued`) and
  /// the blocking solve: consult the cache — at dispatch, for a queued
  /// request, an identical request ahead in some queue may have completed
  /// while this one waited, so queued duplicates collapse to one solve —
  /// and on a miss (counted here, so cache_hits + cache_misses equals the
  /// cache-eligible requests that reached a hit/solve decision; shed
  /// requests count as neither) run the request and store a kOk result.
  SolveResult serve(const InstanceHandle& handle, const SolverSpec& spec,
                    const std::optional<ResultCache::Key>& key,
                    std::chrono::steady_clock::time_point start, bool queued);
  /// Runs one request through the api/ core with full instrumentation:
  /// the RequestContext (deadline resolved against `start`, cancel token,
  /// metrics sink, trace root when spec.trace is set, the cached view of
  /// `state` when non-null), service.request_us, and the status counters.
  /// `queued` marks pool-hopped requests (their submit-to-pickup wait is
  /// recorded as service.queue_wait_us and a queue_wait span).
  SolveResult run_request(const EventTrace& trace, const InstanceState* state,
                          SolverSpec spec,
                          std::chrono::steady_clock::time_point start,
                          bool queued);

  /// Admission check + enqueue under sched_mu_, spawning a pump task when
  /// a worker slot is free.  False = shed (caller produces the kShedded
  /// result; the task was not enqueued).
  bool enqueue(const TenantHandle& tenant, std::function<void()> task);
  /// Pool task: drains tenant queues in DRR order until empty.
  void pump();

  int workers_ = 1;

  /// Shared so loaded InstanceHandles, which may outlive the Service, keep
  /// it alive.
  std::shared_ptr<obs::MetricsRegistry> registry_;

  /// Null when ServiceConfig::cache_bytes == 0 (caching off).
  std::unique_ptr<ResultCache> cache_;

  /// Tenant queues + DRR state, serialized under sched_mu_.  Tenants live
  /// as long as the Service (raw pointers inside the scheduler stay valid);
  /// declared before pool_ so draining pumps see live queues.
  std::mutex sched_mu_;
  DrrScheduler scheduler_;
  std::unordered_map<std::string, TenantHandle> tenants_;
  TenantHandle default_tenant_;
  int pumps_ = 0;  ///< pump tasks in flight, <= workers_

  /// Declared last: destroyed first, so the pool drains and joins while
  /// every counter the in-flight requests touch is still alive.
  exec::ThreadPool pool_;
};

}  // namespace busytime
