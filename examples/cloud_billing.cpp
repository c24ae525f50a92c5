// Cloud billing scenario (Section 1, cloud computing application).
//
// A client has a synthetic cluster trace of compute tasks, each needing one
// computing unit of a machine that serves g units.  We show both paper
// problems in money terms:
//   1. MinBusy   — run everything as cheaply as possible;
//   2. MaxThroughput — run as many tasks as possible under a money budget
//      (on the largest clique of the trace, where Theorem 4.1 applies).
//
//   $ ./cloud_billing [--n=300] [--g=8] [--seed=42] [--rate=3]
#include <algorithm>
#include <iostream>

#include "busytime.hpp"
#include "sim/billing.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace busytime;
  const Flags flags(argc, argv);

  TraceParams trace;
  trace.n = static_cast<int>(flags.get_int("n", 300));
  trace.g = static_cast<int>(flags.get_int("g", 8));
  trace.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  trace.diurnal = true;
  const Instance inst = gen_trace(trace);
  std::cout << "trace: " << inst.summary() << "\n";

  BillingRate rate;
  rate.price_per_time_unit = flags.get_int("rate", 3);
  rate.price_per_machine = 25;

  // --- 1. Minimize the bill for the whole trace -----------------------
  const Invoice naive = price_schedule(inst, one_job_per_machine(inst), rate);
  const DispatchResult optimized = solve_minbusy_auto(inst);
  const Invoice smart = price_schedule(inst, optimized.schedule, rate);

  std::cout << "\nMinBusy (run everything):\n";
  std::cout << "  one-job-per-machine bill: " << naive.total() << "  (busy "
            << naive.busy_time << ", machines " << naive.machines << ")\n";
  std::cout << "  optimized bill:           " << smart.total() << "  (busy "
            << smart.busy_time << ", machines " << smart.machines << ")\n";
  std::cout << "  saving: "
            << 100.0 * static_cast<double>(naive.total() - smart.total()) /
                   static_cast<double>(naive.total())
            << "%\n";

  // --- 2. Budgeted throughput on the peak-hour clique -----------------
  // Find the busiest time point and take all jobs alive there: a clique
  // instance where the Theorem 4.1 4-approximation applies.
  const PeakOverlap peak = peak_overlap(inst.intervals());
  std::vector<JobId> alive;
  for (std::size_t j = 0; j < inst.size(); ++j)
    if (inst.jobs()[j].interval.contains_time(peak.time))
      alive.push_back(static_cast<JobId>(j));
  const Instance rush = inst.restricted_to(alive);
  std::cout << "\npeak at t=" << peak.time << ": " << rush.size()
            << " concurrent tasks (clique=" << is_clique(rush) << ")\n";

  std::cout << "MaxThroughput on the peak clique under money budgets:\n";
  for (const std::int64_t money : {500, 2000, 8000, 32000}) {
    const Time budget = budget_from_money(money, rate);
    const TputResult r = solve_clique_tput(rush, budget);
    const Invoice invoice = price_schedule(rush, r.schedule, rate);
    std::cout << "  money " << money << " -> budget " << budget << " -> "
              << r.throughput << "/" << rush.size() << " tasks, billed "
              << invoice.total() << "\n";
  }
  return 0;
}
