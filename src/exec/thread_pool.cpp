#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

namespace busytime::exec {

namespace {

/// Set for the lifetime of every ThreadPool worker thread (the shared pool's
/// and a Service's request workers alike): a parallel_for started there
/// runs inline.
thread_local bool tls_in_worker = false;

int clamp_threads(int n) { return std::min(std::max(n, 1), kMaxThreads); }

/// BUSYTIME_THREADS, parsed once: 0 or unset/garbage = hardware concurrency.
int env_threads() {
  static const int value = [] {
    const char* raw = std::getenv("BUSYTIME_THREADS");
    if (raw == nullptr || *raw == '\0') return 0;
    const int parsed = std::atoi(raw);
    return parsed > 0 ? clamp_threads(parsed) : 0;
  }();
  return value;
}

std::atomic<int> g_default_threads{0};  // 0 = not overridden

}  // namespace

int hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : clamp_threads(static_cast<int>(hw));
}

int default_threads() noexcept {
  const int overridden = g_default_threads.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  const int env = env_threads();
  return env > 0 ? env : hardware_threads();
}

void set_default_threads(int n) noexcept {
  g_default_threads.store(n <= 0 ? hardware_threads() : clamp_threads(n),
                          std::memory_order_relaxed);
}

int resolve_threads(int requested) noexcept {
  return requested == 0 ? default_threads() : clamp_threads(requested);
}

// ----------------------------------------------------------------- pool ---

ThreadPool::ThreadPool(int threads) { ensure_size(resolve_threads(threads)); }

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::ensure_size(int threads) {
  const int target = std::min(threads, kMaxThreads);
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(workers_.size()) < target) {
    WorkerTimes& times = times_.emplace_back();
    workers_.emplace_back([this, &times] { worker_loop(times); });
  }
}

void ThreadPool::submit(std::function<void()> task) {
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({std::move(task), now});
    ++tasks_submitted_;
    queue_depth_peak_ =
        std::max<std::uint64_t>(queue_depth_peak_, queue_.size());
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(WorkerTimes& times) {
  tls_in_worker = true;
  const auto elapsed_ns = [](std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
  };
  for (;;) {
    Task task;
    const auto idle_start = std::chrono::steady_clock::now();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {  // stopping, and every queued task has run
        times.idle_ns.fetch_add(
            elapsed_ns(idle_start, std::chrono::steady_clock::now()),
            std::memory_order_relaxed);
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto run_start = std::chrono::steady_clock::now();
    times.idle_ns.fetch_add(elapsed_ns(idle_start, run_start),
                            std::memory_order_relaxed);
    const std::uint64_t wait_ns = elapsed_ns(task.enqueued, run_start);
    queue_wait_ns_total_.fetch_add(wait_ns, std::memory_order_relaxed);
    std::uint64_t seen = queue_wait_ns_max_.load(std::memory_order_relaxed);
    while (wait_ns > seen && !queue_wait_ns_max_.compare_exchange_weak(
                                 seen, wait_ns, std::memory_order_relaxed)) {
    }
    task.fn();
    times.busy_ns.fetch_add(
        elapsed_ns(run_start, std::chrono::steady_clock::now()),
        std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  std::lock_guard<std::mutex> lock(mu_);
  s.workers = static_cast<int>(workers_.size());
  s.tasks_submitted = tasks_submitted_;
  s.queue_depth_peak = queue_depth_peak_;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.queue_wait_ns_total = queue_wait_ns_total_.load(std::memory_order_relaxed);
  s.queue_wait_ns_max = queue_wait_ns_max_.load(std::memory_order_relaxed);
  s.worker_busy_ns.reserve(times_.size());
  s.worker_idle_ns.reserve(times_.size());
  for (const WorkerTimes& times : times_) {
    const std::uint64_t busy = times.busy_ns.load(std::memory_order_relaxed);
    const std::uint64_t idle = times.idle_ns.load(std::memory_order_relaxed);
    s.worker_busy_ns.push_back(busy);
    s.worker_idle_ns.push_back(idle);
    s.busy_ns_total += busy;
    s.idle_ns_total += idle;
  }
  return s;
}

ThreadPool& ThreadPool::shared() {
  // Intentionally leaked: workers may still be parked when static
  // destructors run, and joining them at an unspecified point of shutdown
  // buys nothing.  The OS reclaims the threads at process exit.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

// ---------------------------------------------------------- parallel_for ---

namespace {

/// Shared state of one parallel_for call.  Indices are claimed in chunks via
/// an atomic cursor; completion is signalled when every index is accounted
/// for (executed, or skipped after a failure).
struct ForState {
  explicit ForState(std::size_t total, std::size_t chunk_size,
                    const std::function<void(std::size_t)>& fn)
      : n(total), chunk(chunk_size), body(fn) {}

  const std::size_t n;
  const std::size_t chunk;
  const std::function<void(std::size_t)>& body;

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable cv;
  std::exception_ptr error;

  void drain() {
    for (;;) {
      const std::size_t begin = next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + chunk, n);
      if (!failed.load(std::memory_order_relaxed)) {
        try {
          for (std::size_t i = begin; i < end; ++i) body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
      }
      const std::size_t finished =
          done.fetch_add(end - begin, std::memory_order_acq_rel) + (end - begin);
      if (finished == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

}  // namespace

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  const int t = resolve_threads(threads);
  if (t <= 1 || n == 1 || tls_in_worker) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  const auto workers = static_cast<std::size_t>(t);
  // Chunked claiming keeps the atomic cursor off the critical path when
  // bodies are tiny (many small components); the 8x oversubscription still
  // load-balances uneven component sizes.
  const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 8));
  auto state = std::make_shared<ForState>(n, chunk, body);

  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_size(t - 1);
  for (int w = 0; w < t - 1; ++w) pool.submit([state] { state->drain(); });

  state->drain();  // the caller is the t-th worker
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->n;
    });
    if (state->error) std::rethrow_exception(state->error);
  }
}

}  // namespace busytime::exec
