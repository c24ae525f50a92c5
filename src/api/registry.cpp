#include "api/registry.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "algo/local_search.hpp"
#include "core/validate.hpp"
#include "obs/hooks.hpp"
#include "online/event.hpp"
#include "util/check.hpp"

namespace busytime {

std::string to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::kOffline: return "offline";
    case SolverKind::kExact: return "exact";
    case SolverKind::kThroughput: return "throughput";
    case SolverKind::kOnline: return "online";
    case SolverKind::kExtension: return "extension";
  }
  return "unknown";
}

std::string to_string(OptimalityClass optimality) {
  switch (optimality) {
    case OptimalityClass::kExact: return "exact";
    case OptimalityClass::kApprox: return "approx";
    case OptimalityClass::kHeuristic: return "heuristic";
  }
  return "unknown";
}

SolverRegistry& SolverRegistry::instance() {
  // Magic-static init is thread-safe; built-ins register exactly once.
  static SolverRegistry registry = [] {
    SolverRegistry r;
    detail::register_offline_solvers(r);
    detail::register_throughput_solvers(r);
    detail::register_online_solvers(r);
    detail::register_extension_solvers(r);
    return r;
  }();
  return registry;
}

void SolverRegistry::add(SolverInfo info) {
  if (info.name.empty()) throw std::invalid_argument("solver has an empty name");
  if (!info.run) throw std::invalid_argument("solver '" + info.name + "' has no run hook");
  if (!info.applicable)
    throw std::invalid_argument("solver '" + info.name + "' has no applicability predicate");
  const auto [it, inserted] = solvers_.emplace(info.name, std::move(info));
  if (!inserted)
    throw std::invalid_argument("solver '" + it->first + "' registered twice");
  // Rebuild the dispatch order; registration is rare, dispatch is hot.
  dispatchable_.clear();
  for (const auto& [name, solver] : solvers_)
    if (solver.dispatch_priority >= 0) dispatchable_.push_back(&solver);
  std::stable_sort(dispatchable_.begin(), dispatchable_.end(),
                   [](const SolverInfo* a, const SolverInfo* b) {
                     return a->dispatch_priority > b->dispatch_priority;
                   });
}

const SolverInfo* SolverRegistry::find(const std::string& name) const {
  const auto it = solvers_.find(name);
  return it == solvers_.end() ? nullptr : &it->second;
}

const SolverInfo& SolverRegistry::at(const std::string& name) const {
  if (const SolverInfo* info = find(name)) return *info;
  std::string known;
  for (const auto& n : names()) known += (known.empty() ? "" : ", ") + n;
  throw std::invalid_argument("unknown solver '" + name + "' (known: " + known + ")");
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(solvers_.size());
  for (const auto& [name, info] : solvers_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::vector<const SolverInfo*> SolverRegistry::all() const {
  std::vector<const SolverInfo*> out;
  out.reserve(solvers_.size());
  for (const auto& [name, info] : solvers_) out.push_back(&info);
  return out;
}

std::vector<const SolverInfo*> SolverRegistry::by_kind(SolverKind kind) const {
  std::vector<const SolverInfo*> out;
  for (const auto& [name, info] : solvers_)
    if (info.kind == kind) out.push_back(&info);
  return out;
}

const std::vector<const SolverInfo*>& SolverRegistry::dispatchable() const {
  return dispatchable_;
}

namespace {

/// Uniform epilogue of every kOk result: derives cost, throughput, bounds,
/// ratio, and validity from the schedule against the instance the result
/// is measured on, in one measure_schedule pass.
void finalize_result(SolveResult& result, const Instance& inst) {
  result.schedule.ensure_size(inst.size());
  const ScheduleMeasure measure = measure_schedule(inst, result.schedule);
  result.cost = measure.cost;
  result.throughput = measure.throughput;
  result.bounds = measure.bounds;
  result.ratio_to_lower_bound =
      inst.empty() ? 0 : measure.bounds.ratio(measure.cost);
  result.valid = measure.valid;
  BUSYTIME_CHECK(result.valid, "a solver returned a kOk schedule that runs "
                               "more than g jobs at once on some machine");
  BUSYTIME_CHECK(result.throughput != static_cast<std::int64_t>(inst.size()) ||
                     result.bounds.admissible(result.cost),
                 "a full schedule's cost falls outside the Observation 2.1 "
                 "bounds [max(span, len/g), len]");
}

/// Opens the "solve" span covering the run path's timed region and anchors
/// deeper layers (dispatch, replay) under it; restores the anchor on close.
class SolveSpan {
 public:
  explicit SolveSpan(const RequestContext* ctx)
      : trace_(obs::trace_of(ctx)) {
    if (trace_ == nullptr) return;
    id_ = trace_->open("solve", ctx->trace_root);
    trace_->set_anchor(id_);
  }
  ~SolveSpan() {
    if (trace_ == nullptr) return;
    trace_->set_anchor(0);
    trace_->close(id_);
  }
  std::uint32_t id() const noexcept { return id_; }
  obs::TraceContext* trace() const noexcept { return trace_; }

 private:
  obs::TraceContext* trace_ = nullptr;
  std::uint32_t id_ = 0;
};

/// Run-path control knobs that never change result bytes: deadline_ms only
/// decides *whether* a result is computed, threads only how fast (the CLI
/// copies --threads into every spec while exec::set_default_threads already
/// honors it globally).  Neither is "consumed" by a solver nor "ignored" —
/// and neither belongs in a result-equivalence cache key.
bool is_control_key(const std::string& key) {
  return key == "deadline_ms" || key == "threads";
}

/// Whether the named solver's result depends on `key` (see
/// SolverInfo::consumes); g is consumed by the run path itself (capacity
/// override), budget by every budgeted solver, improve by the
/// offline/exact post-pass.  This single predicate is the canonicalization
/// shared by ignored-option reporting and SolverSpec::canonical_key, so
/// the CLI warning and the result cache agree on spec equivalence.
bool is_consumed_key(const SolverInfo& info, const std::string& key) {
  if (key == "g") return true;
  if (key == "budget") return info.needs_budget;
  if (key == "improve")
    return info.kind == SolverKind::kOffline || info.kind == SolverKind::kExact;
  return std::find(info.consumes.begin(), info.consumes.end(), key) !=
         info.consumes.end();
}

}  // namespace

std::vector<std::string> detail::ignored_options(const SolverInfo& info,
                                                 const SolverOptions& options) {
  std::vector<std::string> ignored;
  for (const std::string& key : options.non_default_keys())
    if (!is_control_key(key) && !is_consumed_key(info, key))
      ignored.push_back(key);
  return ignored;
}

std::string SolverSpec::canonical_key() const {
  const SolverInfo* info = SolverRegistry::instance().find(name);
  std::vector<std::string> keys;
  for (const std::string& key : options.non_default_keys()) {
    if (is_control_key(key)) continue;
    // Unknown solver: keep every non-control key (conservative — never
    // merges two specs a registered solver might distinguish).
    if (info != nullptr && !is_consumed_key(*info, key)) continue;
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  std::string out = name;
  for (const std::string& key : keys)
    out += "|" + key + "=" + options.value_of(key);
  return out;
}

namespace {

/// The kDeadline / kCancelled result shape: empty schedule sized to the
/// instance, nothing solved, nothing valid.
SolveResult control_tripped(const SolverInfo& info, SolveStatus status,
                            std::size_t jobs) {
  SolveResult result;
  result.solver = info.name;
  result.status = status;
  result.schedule.ensure_size(jobs);
  return result;
}

}  // namespace

SolveResult detail::solve_request(const EventTrace& trace,
                                  const SolverSpec& spec) {
  const SolverInfo& info = SolverRegistry::instance().at(spec.name);

  // Capacity override rebuilds the workload; everything downstream sees the
  // requested g.
  EventTrace overridden;
  const EventTrace* target = &trace;
  if (spec.options.g > 0 && spec.options.g != trace.g()) {
    overridden = EventTrace(Instance(trace.base().jobs(), spec.options.g),
                            trace.cancels());
    target = &overridden;
  }
  // Everything is measured against the residual instance — the workload
  // that actually ran (the base instance itself when nothing was
  // retracted).  Online policies replay the retractions as events (their
  // incrementally maintained online_cost equals the recomputed cost:
  // refunds are exact); every other solver solves the residual directly.
  const Instance& inst = target->residual();  // memoized on the trace
  const bool replay = target->has_cancels() && info.kind == SolverKind::kOnline;

  if (replay && !info.run_events)
    throw NotApplicableError("online solver '" + info.name +
                             "' cannot replay cancellation events");
  if (info.needs_budget && spec.options.budget < 0)
    throw SpecError("solver '" + info.name + "' needs option budget=T");
  if (!info.applicable(inst))
    throw NotApplicableError("solver '" + info.name +
                             "' is not applicable to this instance (" +
                             inst.summary() + ")");

  if (obs::MetricsRegistry* metrics = obs::metrics_of(spec.context.get()))
    metrics->add<obs::metric::kSolveRequests>();
  const SolveSpan solve_span(spec.context.get());
  const auto t0 = std::chrono::steady_clock::now();
  SolveResult result;
  try {
    // Entry checkpoint (a whole-instance solver or an event replay is one
    // "component"); the per-component dispatcher re-checks between
    // components, and sharded replays replay whole components anyway.
    if (spec.context) spec.context->check();
    result = replay ? info.run_events(*target, spec) : info.run(inst, spec);
    // Local-search post-pass: only for solver families whose validity notion
    // is the base capacity count that improve_schedule preserves (extension
    // solvers may obey stricter rules, e.g. per-job demands).
    if (spec.options.improve &&
        (info.kind == SolverKind::kOffline || info.kind == SolverKind::kExact)) {
      result.schedule.ensure_size(inst.size());
      const LocalSearchStats ls = improve_schedule(inst, result.schedule);
      if (ls.relocations + ls.swaps > 0)
        result.trace.push_back({inst.size(), "local_search"});
    }
  } catch (const DeadlineExceededError&) {
    result = control_tripped(info, SolveStatus::kDeadline, inst.size());
  } catch (const RequestCancelledError&) {
    result = control_tripped(info, SolveStatus::kCancelled, inst.size());
  }
  if (result.status == SolveStatus::kOk) {
    const obs::ScopedSpan finalize_span(solve_span.trace(), "finalize",
                                        solve_span.id());
    finalize_result(result, inst);
  }
  const auto t1 = std::chrono::steady_clock::now();

  result.solver = info.name;
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.ignored_options = detail::ignored_options(info, spec.options);
  if (result.status != SolveStatus::kOk) return result;
  // Offline solvers have no streaming pool; give their counters the offline
  // meaning so every SolveResult reports through the same fields.  (A replay
  // counts its own placements, so this never touches an online result.)
  if (result.stats.jobs_assigned == 0 && result.throughput > 0) {
    result.stats.jobs_assigned = result.throughput;
    result.stats.machines_opened = result.schedule.machine_count();
    result.stats.open_machines = result.stats.machines_opened;
    result.stats.peak_open_machines = result.stats.machines_opened;
    result.stats.online_cost = result.cost;
  }
  return result;
}

}  // namespace busytime
