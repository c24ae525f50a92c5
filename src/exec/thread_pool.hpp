// Parallel execution layer: a fixed-size worker pool over one FIFO task
// queue, plus the deterministic parallel_for helper.
//
// Everything above this layer (per-component solving, the sharded stream
// driver, the CLI's side-by-side solver runs) obeys one contract:
// *parallelism never changes results*.  The helper makes that easy to keep:
//
//  * parallel_for(i) is expected to write only into slot i of caller-owned
//    storage, so any interleaving reproduces the sequential loop's output;
//  * threads == 1 is an exact sequential path — no pool, no atomics, bodies
//    run in index order on the calling thread;
//  * a parallel_for started on a pool worker — a body of an outer loop, or
//    a pool task such as a Service request — runs inline on that worker.
//    Solver code may use the helper freely without deadlock analysis, and
//    a pooled request's time follows one CPU's speed rather than how many
//    of the host's CPUs happen to be free: on a shared host the latter
//    swings from one minute to the next, and a request that fanned out
//    would swing with it.
//
// The pool does no load balancing of its own: its callers already balance
// their work.  A parallel_for's helper tasks drain the loop's shared index
// cursor, and a Service's request workers drain its fair-share scheduler,
// so which idle worker starts a task never matters.
//
// Thread-count knobs: 0 means "the process default", which is the
// BUSYTIME_THREADS environment variable when set (itself 0 = hardware
// concurrency) or hardware concurrency otherwise, overridable at runtime via
// set_default_threads (the CLI's --threads flag).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace busytime::exec {

/// Hard cap on worker threads (sanity bound, far above real hardware).
inline constexpr int kMaxThreads = 256;

/// std::thread::hardware_concurrency(), clamped to >= 1.
int hardware_threads() noexcept;

/// The process-wide default thread count (see file comment).  Always >= 1.
int default_threads() noexcept;

/// Overrides the process default: 0 = hardware concurrency, 1 = sequential,
/// n = n workers.  Thread count affects only speed, never results.
void set_default_threads(int n) noexcept;

/// Maps a requested count to an effective one: 0 resolves to
/// default_threads(); anything else is clamped to [1, kMaxThreads].
int resolve_threads(int requested) noexcept;

/// Runs body(0) .. body(n-1), each exactly once, using up to `threads`
/// workers (0 = default_threads(); 1 or n <= 1 = sequential in index order;
/// on a pool worker thread, inline in index order).
/// Blocks until every body has finished.  The first exception thrown by a
/// body is rethrown here after the remaining indices are skipped.
/// `body` must be safe to call concurrently for distinct indices.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

/// A point-in-time sample of one pool's execution accounting (see
/// ThreadPool::stats()).  All counters are cumulative since the pool
/// started; diff two samples for an interval.  Durations are wall-clock
/// nanoseconds and naturally vary run to run — only the task counters are
/// deterministic for a deterministic workload.
struct PoolStats {
  int workers = 0;                       ///< worker threads started
  std::uint64_t tasks_submitted = 0;     ///< tasks handed to the pool
  std::uint64_t tasks_executed = 0;      ///< tasks a worker finished
  std::uint64_t queue_depth_peak = 0;    ///< most tasks queued at once
  std::uint64_t queue_wait_ns_total = 0; ///< enqueue-to-pickup, summed
  std::uint64_t queue_wait_ns_max = 0;   ///< worst single task wait
  std::uint64_t steals = 0;              ///< always 0 (one queue, nothing to
                                         ///< steal); kept for old readers
  std::uint64_t busy_ns_total = 0;       ///< worker time running tasks
  std::uint64_t idle_ns_total = 0;       ///< worker time parked on the queue
  std::vector<std::uint64_t> worker_busy_ns;  ///< per-worker busy split
  std::vector<std::uint64_t> worker_idle_ns;  ///< per-worker idle split

  /// Fraction of accounted worker time spent running tasks, in [0, 1]
  /// (0 when the pool has done nothing yet).
  double utilization() const noexcept {
    const std::uint64_t accounted = busy_ns_total + idle_ns_total;
    return accounted == 0
               ? 0.0
               : static_cast<double>(busy_ns_total) /
                     static_cast<double>(accounted);
  }
};

/// Fixed-size worker pool over one FIFO queue.  parallel_for drives a
/// shared process-wide instance (ThreadPool::shared()) that grows on demand
/// up to kMaxThreads and is reused across calls, so repeated solves pay no
/// thread start-up cost.
///
/// The pool keeps its own execution accounting — per-worker busy/idle time,
/// queue depth, queue wait — sampled via stats().  The write path is two
/// clock reads and a few relaxed atomics per *task* (tasks are coarse: whole
/// requests, parallel_for drain shares), so it stays on in release builds;
/// src/obs/ publishes samples into the exec.* gauges.
class ThreadPool {
 public:
  /// An empty pool (no workers); grow it with ensure_size.
  ThreadPool() = default;
  /// A pool with resolve_threads(threads) workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current worker count.
  int size() const;

  /// Grows the pool to at least `threads` workers (never shrinks; capped at
  /// kMaxThreads).
  void ensure_size(int threads);

  /// Enqueues a task.  Tasks start in FIFO order; a pool with no workers
  /// holds them until ensure_size adds one.  The destructor runs every task
  /// still queued before it returns.
  void submit(std::function<void()> task);

  /// A consistent-enough accounting sample (aggregate fields are read under
  /// the pool lock; per-worker times are individually atomic).
  PoolStats stats() const;

  /// The process-wide pool used by parallel_for.  Never destroyed (workers
  /// are parked at exit), so it is safe to use from any static's lifetime.
  static ThreadPool& shared();

 private:
  /// One queued task plus its enqueue instant (for queue-wait accounting).
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// One worker's time accounting, cache-line padded.  Held in a deque so
  /// a worker's reference stays valid while the pool grows.
  struct alignas(64) WorkerTimes {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> idle_ns{0};
  };

  void worker_loop(WorkerTimes& times);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<WorkerTimes> times_;  ///< one per worker, in start order
  std::deque<Task> queue_;
  bool stopping_ = false;

  // Accounting.  submitted/depth-peak are written under mu_ (plain);
  // executed/wait are written by workers off-lock (atomic).
  std::uint64_t tasks_submitted_ = 0;
  std::uint64_t queue_depth_peak_ = 0;
  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> queue_wait_ns_total_{0};
  std::atomic<std::uint64_t> queue_wait_ns_max_{0};

  /// Declared after everything the workers touch.
  std::vector<std::thread> workers_;
};

}  // namespace busytime::exec
