// Online serving demo: jobs stream in from a diurnal cluster trace and are
// placed at their arrival instants; compare every registered online policy
// and the offline dispatcher on the same workload through the Service
// facade — one long-lived Service, one InstanceHandle per workload, every
// policy submitted asynchronously against it.  A second pass retracts a
// share of the jobs mid-flight (cancellations + preemptions) and shows the
// busy-time refunds and slot recycling the engine performs incrementally.
//
//   ./online_serving [--n=2000] [--g=8] [--seed=7] [--epoch=1024]
//                    [--cancel_rate=0.15] [--workers=2]
#include <future>
#include <iostream>
#include <vector>

#include "api/registry.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "util/flags.hpp"
#include "workload/cancellable.hpp"
#include "workload/trace.hpp"

namespace {

using namespace busytime;

/// Submits every online policy plus the offline dispatcher against one
/// handle and prints the results in submission order.
void serve_portfolio(Service& service, const InstanceHandle& handle,
                     Time epoch_length) {
  std::vector<SolverSpec> specs;
  for (const SolverInfo* info :
       SolverRegistry::instance().by_kind(SolverKind::kOnline)) {
    SolverSpec spec;
    spec.name = info->name;
    spec.options.epoch_length = epoch_length;
    specs.push_back(std::move(spec));
  }
  specs.push_back(SolverSpec::parse("auto"));

  std::vector<std::future<SolveResult>> futures;
  for (const SolverSpec& spec : specs)
    futures.push_back(service.submit(handle, spec));
  for (std::size_t i = 0; i + 1 < futures.size(); ++i) {
    const SolveResult r = futures[i].get();
    std::cout << r.summary() << "\n    " << r.stats.summary() << "\n";
  }
  const SolveResult offline = futures.back().get();
  std::cout << "offline dispatcher cost: " << offline.cost << " on "
            << offline.schedule.machine_count() << " machines (";
  for (std::size_t i = 0; i < offline.trace.size(); ++i)
    std::cout << (i ? " " : "") << offline.trace[i].algo;
  std::cout << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);

  TraceParams tp;
  tp.n = static_cast<int>(flags.get_int("n", 2000));
  tp.g = static_cast<int>(flags.get_int("g", 8));
  tp.diurnal = true;
  tp.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  const Instance trace = gen_trace(tp);
  const Time epoch_length = flags.get_int("epoch", 1024);

  std::cout << "trace: " << trace.summary() << "\n\n";

  // One Service for the whole serving session; each workload loads once and
  // every request against it reuses the cached decomposition.
  ServiceConfig config;
  config.workers = static_cast<int>(flags.get_int("workers", 2));
  Service service(config);

  const InstanceHandle handle = service.load(trace);
  serve_portfolio(service, handle, epoch_length);

  // The same stream with retractions: a share of the jobs aborts mid-flight
  // and the engine refunds the busy tail nobody covers any more.  Costs are
  // measured against the residual workload, so the offline comparison stays
  // honest.
  CancelParams cp;
  cp.cancel_rate = flags.get_double("cancel_rate", 0.15);
  cp.seed = tp.seed;
  const EventTrace cancellable = with_random_cancels(trace, cp);
  std::cout << "\nwith " << cancellable.cancels().size()
            << " retractions streamed in (cancel_rate=" << cp.cancel_rate
            << "):\n";
  const InstanceHandle cancellable_handle = service.load(cancellable);
  serve_portfolio(service, cancellable_handle, epoch_length);

  const obs::MetricsSnapshot snap = service.metrics_snapshot();
  std::cout << "\nservice: " << snap.counter_value(obs::metric::kServiceRequests)
            << " requests, " << snap.counter_value(obs::metric::kServiceOk)
            << " ok, " << snap.counter_value(obs::metric::kServiceHandlesLoaded)
            << " handles loaded\n";
  return 0;
}
