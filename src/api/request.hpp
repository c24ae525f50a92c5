// Per-request controls for the unified solver API: deadlines, cooperative
// cancellation, and the runtime context the Service facade threads through a
// SolverSpec.
//
// A request may carry a wall-clock deadline (SolverOptions::deadline_ms) and
// a CancelToken.  Both are *cooperative* and honored at component
// boundaries: the per-component dispatcher checks the context before
// solving each component, and every run path checks it once before the
// solver starts.  A solver is never interrupted mid-algorithm, so a request
// that trips a control produces a SolveResult with an empty schedule and
// status kDeadline / kCancelled instead of a partial, unverifiable one.
//
// The RequestContext also carries the cached-decomposition hook: a Service
// InstanceHandle exposes its memoized InstanceView (components +
// per-component classification) through `view_provider`, so warm re-solves
// against the same handle skip re-classification entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

namespace busytime {

namespace obs {
class MetricsRegistry;
class TraceContext;
}  // namespace obs

class Instance;
class InstanceView;

/// Outcome of one solve request.  kOk results carry the solver's schedule;
/// kDeadline / kCancelled / kShedded results carry an empty schedule
/// (valid == false) and report which control tripped.
enum class SolveStatus {
  kOk,
  kDeadline,   ///< the per-request deadline expired before the solve finished
  kCancelled,  ///< the request's CancelToken was triggered
  kShedded,    ///< admission control rejected the request at submit time
};

std::string to_string(SolveStatus status);

/// Cooperative cancellation handle.  Default-constructed tokens are inert
/// (never cancelled, nothing to trigger); CancelToken::make() allocates a
/// shared flag that any copy can trigger and any copy observes.  Thread-safe.
class CancelToken {
 public:
  CancelToken() = default;

  /// A token backed by a fresh shared flag.
  static CancelToken make() {
    CancelToken token;
    token.flag_ = std::make_shared<std::atomic<bool>>(false);
    return token;
  }

  /// True when this token can ever report cancellation.
  bool cancellable() const noexcept { return flag_ != nullptr; }

  /// Requests cancellation; a no-op on inert tokens.
  void request_cancel() const noexcept {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  bool cancelled() const noexcept {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Thrown from a control checkpoint when the deadline has expired.  Internal
/// to the run path: run_solver and Service catch it and report
/// SolveStatus::kDeadline.
class DeadlineExceededError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown from a control checkpoint when the CancelToken fired.  Internal to
/// the run path: run_solver and Service catch it and report
/// SolveStatus::kCancelled.
class RequestCancelledError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runtime context of one request, carried by SolverSpec::context.  Built by
/// the Service (or by run_solver when options.deadline_ms / a cancel token
/// is set) and read at every control checkpoint; never serialized.
struct RequestContext {
  /// Absolute deadline instant; only meaningful when has_deadline.
  std::chrono::steady_clock::time_point deadline_at{};
  bool has_deadline = false;
  CancelToken cancel;
  /// Memoized decomposition hook, owned by a Service InstanceHandle that
  /// outlives the request.  Called with the instance being solved; returns
  /// the handle's cached view when it describes that exact Instance object
  /// (counting the build/hit), and nullptr otherwise — e.g. under a g=
  /// override, where the provider neither builds nor counts anything and
  /// the dispatcher classifies afresh.  Null function: no cache available.
  std::function<const InstanceView*(const Instance&)> view_provider;

  /// Metrics registry for this request's instrumentation (src/obs/).
  /// Installed by the Service (its own registry); null records nothing.
  /// Instrumentation sites resolve it through obs::metrics_of.  The
  /// installer guarantees the registry outlives the request.
  obs::MetricsRegistry* metrics = nullptr;
  /// Request-scoped span collector; null = tracing off (the common case).
  /// Shared with the caller that requested the trace, so the span tree
  /// survives the request.  TraceContext is internally synchronized — the
  /// const-RequestContext sharing rule still holds.
  std::shared_ptr<obs::TraceContext> trace;
  /// Root span id of this request in `trace` ("request"); deeper layers
  /// parent under it (or under the trace's current anchor).  0 = none.
  std::uint32_t trace_root = 0;

  /// Deadlines past ~31 years are treated as "no deadline": beyond any real
  /// request lifetime, and converting them to integer clock ticks would
  /// overflow (UB in duration_cast).
  static constexpr double kMaxDeadlineMs = 1e12;

  /// Resolves a deadline_ms option against the request's start instant (the
  /// single definition of deadline arithmetic, shared by Service::submit
  /// and the free-function path); <= 0 means no deadline, and so does NaN,
  /// which a SolverOptions built without set() can carry.
  void set_deadline(std::chrono::steady_clock::time_point start,
                    double deadline_ms) {
    if (!(deadline_ms > 0) || deadline_ms > kMaxDeadlineMs) return;
    has_deadline = true;
    deadline_at =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(deadline_ms));
  }

  /// Control checkpoint: throws RequestCancelledError / DeadlineExceededError
  /// when the corresponding control tripped.  Cancellation wins ties so a
  /// cancelled request reports kCancelled even after its deadline passed.
  void check() const {
    if (cancel.cancelled())
      throw RequestCancelledError("request cancelled");
    if (has_deadline && std::chrono::steady_clock::now() >= deadline_at)
      throw DeadlineExceededError("request deadline exceeded");
  }
};

}  // namespace busytime
