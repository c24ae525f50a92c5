#include "service/service.hpp"

#include <stdexcept>
#include <utility>

#include "io/serialize.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"

namespace busytime {

namespace {

namespace metric = obs::metric;

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count());
}

/// The kShedded result shape: like a control trip (empty schedule sized to
/// the instance, nothing valid), but produced at submit time without
/// resolving the solver — admission must stay O(1), and an unknown solver
/// name on a shed request is rejection either way.
SolveResult make_shed_result(const std::string& solver, std::size_t jobs) {
  SolveResult result;
  result.solver = solver;
  result.status = SolveStatus::kShedded;
  result.schedule.ensure_size(jobs);
  return result;
}

}  // namespace

InstanceState::InstanceState(EventTrace trace,
                             std::shared_ptr<obs::MetricsRegistry> registry)
    : trace_(std::move(trace)), registry_(std::move(registry)) {}

std::uint64_t InstanceState::fingerprint() const {
  std::call_once(fingerprint_once_, [this] {
    fingerprint_ = util::fnv1a_64(event_trace_to_string(trace_));
  });
  return fingerprint_;
}

Service::Service(ServiceConfig config)
    : workers_(exec::resolve_threads(config.workers)),
      registry_(std::make_shared<obs::MetricsRegistry>()) {
  if (config.cache_bytes > 0)
    cache_ = std::make_unique<ResultCache>(config.cache_bytes);
  scheduler_.set_max_queue(config.max_queue);
  default_tenant_ = std::make_shared<TenantState>("default", /*weight=*/1,
                                                  /*max_queue=*/0);
  tenants_.emplace(default_tenant_->name(), default_tenant_);
}

InstanceHandle Service::load(EventTrace trace) {
  registry_->add<metric::kServiceHandlesLoaded>();
  return std::make_shared<const InstanceState>(std::move(trace), registry_);
}

SolveResult Service::record(SolveResult result) noexcept {
  registry_->add<metric::kServiceCompleted>();
  switch (result.status) {
    case SolveStatus::kOk: registry_->add<metric::kServiceOk>(); break;
    case SolveStatus::kDeadline:
      registry_->add<metric::kServiceDeadlineExpired>();
      break;
    case SolveStatus::kCancelled:
      registry_->add<metric::kServiceCancelled>();
      break;
    case SolveStatus::kShedded: registry_->add<metric::kServiceShed>(); break;
  }
  return result;
}

TenantHandle Service::tenant(const std::string& name, int weight,
                             std::size_t max_queue) {
  if (name.empty())
    throw std::invalid_argument("Service::tenant: empty tenant name");
  if (weight < 1)
    throw std::invalid_argument("Service::tenant: weight must be >= 1");
  std::lock_guard<std::mutex> lock(sched_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_
             .emplace(name,
                      std::make_shared<TenantState>(name, weight, max_queue))
             .first;
  } else {
    DrrScheduler::configure(*it->second, weight, max_queue);
  }
  return it->second;
}

std::optional<ResultCache::Key> Service::cache_key(
    const InstanceState& state, const SolverSpec& spec) const {
  if (cache_ == nullptr || spec.trace != nullptr || spec.cancel.cancelled())
    return std::nullopt;
  ResultCache::Key key;
  key.fingerprint = state.fingerprint();
  key.spec = spec.canonical_key();
  return key;
}

bool Service::cache_find(const ResultCache::Key& key, const SolverSpec& spec,
                         SolveResult* hit) {
  if (!cache_->lookup(key, hit)) return false;
  registry_->add<metric::kServiceCacheHits>();
  if (const SolverInfo* info = SolverRegistry::instance().find(spec.name))
    hit->ignored_options = detail::ignored_options(*info, spec.options);
  return true;
}

void Service::cache_store(const ResultCache::Key& key,
                          const SolveResult& result) {
  const std::size_t evicted = cache_->insert(key, result);
  if (evicted > 0) registry_->add<metric::kServiceCacheEvictions>(evicted);
  registry_->set<metric::kServiceCacheBytes>(
      static_cast<std::int64_t>(cache_->bytes()));
}

bool Service::enqueue(const TenantHandle& tenant, std::function<void()> task) {
  bool spawn = false;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    if (!scheduler_.try_enqueue(tenant, std::move(task))) return false;
    registry_->set<metric::kServiceTenantQueueDepth>(
        static_cast<std::int64_t>(scheduler_.depth_peak()));
    if (pumps_ < workers_) {
      ++pumps_;
      spawn = true;
    }
  }
  if (spawn) {
    pool_.ensure_size(workers_);
    pool_.submit([this] { pump(); });
  }
  return true;
}

void Service::pump() {
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(sched_mu_);
      task = scheduler_.next();
      if (!task) {
        // Exit is decided while holding the lock: any enqueue after this
        // sees pumps_ < workers_ and spawns a replacement, so queued work
        // always has a pump.
        --pumps_;
        return;
      }
    }
    task();
  }
}

SolveResult Service::run_request(const EventTrace& trace,
                                 const InstanceState* state, SolverSpec spec,
                                 std::chrono::steady_clock::time_point start,
                                 bool queued) {
  const auto picked_up = std::chrono::steady_clock::now();
  auto context = std::make_shared<RequestContext>();
  context->set_deadline(start, spec.options.deadline_ms);
  context->cancel = spec.cancel;
  // The registry outlives every request: pool_ (declared after registry_)
  // drains in ~Service before registry_ releases its share.
  context->metrics = registry_.get();
  if (spec.trace != nullptr) {
    context->trace = spec.trace;
    // The root span starts at the request's start instant (submit time for
    // pooled requests), so queue wait is inside it and the tree covers the
    // full request wall time.
    context->trace_root = spec.trace->open_at("request", 0, start);
  }
  // The request keeps the handle alive, so the raw pointer the provider
  // captures outlives every checkpoint that can call it.  The provider
  // hands out the cached view only for the handle's own solve target (a
  // g= override rebuilds the instance, and the mismatch must neither build
  // nor count anything).
  if (state != nullptr)
    context->view_provider = [state](const Instance& inst) -> const InstanceView* {
      return &inst == &state->solve_target() ? &state->view() : nullptr;
    };
  if (queued) {
    registry_->record<metric::kServiceQueueWaitUs>(
        elapsed_us(start, picked_up));
    if (context->trace != nullptr)
      context->trace->add("queue_wait", context->trace_root, start, picked_up);
  }
  const RequestContext& ctx = *context;
  spec.context = std::move(context);
  // service.request_us and the root span close around the solve, success
  // or throw.
  const auto finish = [&] {
    registry_->record<metric::kServiceRequestUs>(
        elapsed_us(start, std::chrono::steady_clock::now()));
    if (ctx.trace != nullptr) ctx.trace->close(ctx.trace_root);
  };
  try {
    SolveResult result = record(detail::solve_request(trace, spec));
    finish();
    return result;
  } catch (...) {
    registry_->add<metric::kServiceCompleted>();
    registry_->add<metric::kServiceFailed>();
    finish();
    throw;
  }
}

SolveResult Service::serve(const InstanceHandle& handle, const SolverSpec& spec,
                           const std::optional<ResultCache::Key>& key,
                           std::chrono::steady_clock::time_point start,
                           bool queued) {
  if (key) {
    SolveResult hit;
    if (cache_find(*key, spec, &hit)) {
      const auto now = std::chrono::steady_clock::now();
      if (queued)
        registry_->record<metric::kServiceQueueWaitUs>(elapsed_us(start, now));
      registry_->record<metric::kServiceRequestUs>(elapsed_us(start, now));
      return record(std::move(hit));
    }
    registry_->add<metric::kServiceCacheMisses>();
  }
  SolveResult result =
      run_request(handle->trace(), handle.get(), spec, start, queued);
  if (key && result.status == SolveStatus::kOk) cache_store(*key, result);
  return result;
}

void Service::submit(InstanceHandle handle, SolverSpec spec, SolveCallback done,
                     const TenantHandle& tenant) {
  if (!handle)
    throw std::invalid_argument("Service::submit: null InstanceHandle");
  if (!done)
    throw std::invalid_argument("Service::submit: null SolveCallback");
  registry_->add<metric::kServiceRequests>();
  const auto start = std::chrono::steady_clock::now();

  // Submit-time cache hits complete inline; a miss is not final yet (the
  // request rechecks at dispatch), so only serve() counts it.
  std::optional<ResultCache::Key> key = cache_key(*handle, spec);
  SolveResult hit;
  if (key && cache_find(*key, spec, &hit)) {
    registry_->record<metric::kServiceRequestUs>(
        elapsed_us(start, std::chrono::steady_clock::now()));
    done(record(std::move(hit)), nullptr);
    return;
  }

  // Saved before the moves below: the shed path reports the requested
  // solver against an instance-sized empty schedule.
  const std::string solver_name = spec.name;
  const std::size_t jobs = handle->jobs();
  auto task = [this, handle = std::move(handle), spec = std::move(spec), done,
               start, key = std::move(key)] {
    SolveResult result;
    try {
      result = serve(handle, spec, key, start, /*queued=*/true);
    } catch (...) {
      done(SolveResult{}, std::current_exception());
      return;
    }
    done(std::move(result), nullptr);
  };
  if (!enqueue(tenant ? tenant : default_tenant_, std::move(task))) {
    registry_->record<metric::kServiceRequestUs>(
        elapsed_us(start, std::chrono::steady_clock::now()));
    done(record(make_shed_result(solver_name, jobs)), nullptr);
  }
}

std::future<SolveResult> Service::submit(InstanceHandle handle, SolverSpec spec,
                                         const TenantHandle& tenant) {
  auto promise = std::make_shared<std::promise<SolveResult>>();
  std::future<SolveResult> future = promise->get_future();
  submit(
      std::move(handle), std::move(spec),
      [promise](SolveResult result, std::exception_ptr error) {
        if (error != nullptr)
          promise->set_exception(error);
        else
          promise->set_value(std::move(result));
      },
      tenant);
  return future;
}

SolveResult Service::solve(const InstanceHandle& handle,
                           const SolverSpec& spec) {
  if (!handle)
    throw std::invalid_argument("Service::solve: null InstanceHandle");
  registry_->add<metric::kServiceRequests>();
  const auto start = std::chrono::steady_clock::now();
  return serve(handle, spec, cache_key(*handle, spec), start, /*queued=*/false);
}

SolveResult Service::solve(const EventTrace& workload, const SolverSpec& spec) {
  registry_->add<metric::kServiceRequests>();
  return run_request(workload, nullptr, spec, std::chrono::steady_clock::now(),
                     /*queued=*/false);
}

obs::MetricsSnapshot Service::metrics_snapshot() const {
  obs::publish_pool_stats(pool_.stats(), *registry_);
  obs::MetricsSnapshot snap = registry_->snapshot();
  // Every cache-eligible request resolves to exactly one hit or one miss,
  // and only requests that entered the Service are eligible.  Counters are
  // relaxed atomics, so the identity is only required of a quiescent
  // snapshot — with requests in flight the three reads are not a cut.
  const auto count = [&snap](const char* name) {
    return snap.counter_value(name);
  };
  if (count(obs::metric::kServiceRequests) ==
      count(obs::metric::kServiceCompleted))
    BUSYTIME_CHECK(count(obs::metric::kServiceCacheHits) +
                           count(obs::metric::kServiceCacheMisses) <=
                       count(obs::metric::kServiceRequests),
                   "cache hit/miss counters exceed the requests that could "
                   "have consulted the cache");
  return snap;
}

Service& Service::process_default() {
  // Intentionally leaked, like exec::ThreadPool::shared(): the facade must
  // stay usable from any static's lifetime, and its parked workers are
  // reclaimed by the OS at process exit.
  static Service* service = new Service();
  return *service;
}

// The one-shot entry point is a thin shim over the process-default Service
// (declared in api/registry.hpp; defined here so api/ stays below service/
// in the layer map).
SolveResult run_solver(const EventTrace& workload, const SolverSpec& spec) {
  return Service::process_default().solve(workload, spec);
}

}  // namespace busytime
