// Quickstart: build an instance, solve MinBusy through the Service facade,
// inspect the schedule, then solve a MaxThroughput variant.
//
//   $ ./quickstart
//
// Walks through the core API in ~80 lines; see README.md for the narrative.
#include <iostream>

#include "busytime.hpp"
#include "sim/machine_sim.hpp"

int main() {
  using namespace busytime;

  // Six jobs on a machine with capacity g = 2 ---------------------------
  // time:      0    5    10   15   20   25
  // J0:        |=========|
  // J1:             |=========|
  // J2:        |==============|
  // J3:                            |====|
  // J4:                            |====|
  // J5:                               |====|
  const Instance inst(
      {Job(0, 10), Job(5, 15), Job(0, 15), Job(20, 25), Job(20, 25), Job(23, 28)},
      /*g=*/2);

  std::cout << "instance: " << inst.summary() << "\n";
  const InstanceClass cls = classify(inst);
  std::cout << "clique=" << cls.clique << " proper=" << cls.proper << "\n";

  // Observation 2.1 bounds: any schedule lands in [max(span, len/g), len].
  const CostBounds bounds = compute_bounds(inst);
  std::cout << "bounds: span=" << bounds.span << " len=" << bounds.length
            << " len/g=" << bounds.lower_bound() << "\n";

  // MinBusy through the Service facade: load() caches the instance's
  // decomposition in a ref-counted handle, and "auto" routes each connected
  // component to the strongest applicable registered algorithm.  (The
  // one-shot run_solver(inst, spec) free function is a shim over the
  // process-default Service — same results, no handle to keep.)
  Service service;
  const InstanceHandle handle = service.load(inst);
  const SolveResult result = service.solve(handle, SolverSpec::parse("auto"));
  std::cout << "algorithms used:";
  for (const auto& entry : result.trace)
    std::cout << " " << entry.algo << "(" << entry.jobs << " jobs)";
  std::cout << "\n";

  const Schedule& schedule = result.schedule;
  std::cout << "valid=" << result.valid << " cost=" << result.cost
            << " machines=" << schedule.machine_count() << "\n";
  for (std::size_t j = 0; j < inst.size(); ++j)
    std::cout << "  job " << j << " " << inst.job(static_cast<JobId>(j)).interval
              << " -> machine " << schedule.machine_of(static_cast<JobId>(j)) << "\n";

  // Exact reference (small instances only) to see how close we got.
  if (SolverRegistry::instance().at("exact").applicable(inst))
    std::cout << "exact optimum: " << run_solver(inst, SolverSpec::parse("exact")).cost
              << "\n";

  // MaxThroughput: with budget T, how many jobs can run?  Budgeted solvers
  // take the budget as a spec option.  submit() returns a future; the four
  // budgets run asynchronously against the same warm handle (its cached
  // classification is reused — no re-decomposition per request).
  std::vector<SolverSpec> budgeted;
  std::vector<std::future<SolveResult>> futures;
  for (const Time budget : {10, 15, 20, 40}) {
    budgeted.push_back(
        SolverSpec::parse("tput_exact:budget=" + std::to_string(budget)));
    futures.push_back(service.submit(handle, budgeted.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const SolveResult tput = futures[i].get();
    std::cout << "budget " << budgeted[i].options.budget << " -> throughput "
              << tput.throughput << " (cost " << tput.cost << ")\n";
  }

  // Per-request controls: a deadline of 0.000001ms trips before the solve
  // starts — the request completes with status "deadline", it never throws.
  const SolveResult expired =
      service.solve(handle, SolverSpec::parse("auto:deadline_ms=0.000001"));
  std::cout << "expired request status: " << to_string(expired.status) << "\n";

  // Replay the MinBusy schedule through the event simulator.
  const SimulationResult sim = simulate(inst, schedule);
  std::cout << "simulated busy time: " << sim.total_busy_time
            << " energy: " << sim.total_energy << "\n";
  return 0;
}
