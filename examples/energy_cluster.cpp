// Energy-aware cluster scheduling (Section 1 and Section 5, energy
// application).
//
// Busy time is energy: we schedule a diurnal trace with different
// algorithms, replay each schedule through the event simulator under a
// power model with wake-up costs, and compare energy — including the
// idle-vs-sleep tradeoff of the Section 5 power-down extension.
//
//   $ ./energy_cluster [--n=400] [--g=6] [--seed=99]
#include <iostream>

#include "busytime.hpp"
#include "sim/machine_sim.hpp"
#include "util/flags.hpp"

int main(int argc, char** argv) {
  using namespace busytime;
  const Flags flags(argc, argv);

  TraceParams trace;
  trace.n = static_cast<int>(flags.get_int("n", 400));
  trace.g = static_cast<int>(flags.get_int("g", 6));
  trace.seed = static_cast<std::uint64_t>(flags.get_int("seed", 99));
  trace.diurnal = true;
  trace.arrival_rate = 0.3;
  const Instance inst = gen_trace(trace);
  std::cout << "cluster trace: " << inst.summary() << "\n";
  std::cout << "lower bound on busy time: " << compute_bounds(inst).lower_bound()
            << "\n\n";

  EnergyModel model;
  model.busy_power = 10;
  model.idle_power = 2;
  model.wake_energy = 200;
  model.sleep_gap_threshold = 60;

  struct Contender {
    const char* name;
    Schedule schedule;
  };
  const DispatchResult dispatched = solve_minbusy_auto(inst);
  Contender contenders[] = {
      {"one-job-per-machine", one_job_per_machine(inst)},
      {"first-fit", solve_first_fit(inst)},
      {"auto-dispatch", dispatched.schedule},
  };

  std::cout << "algorithm             busy_time  machines  activations  energy\n";
  for (const auto& c : contenders) {
    const SimulationResult sim = simulate(inst, c.schedule, model);
    int activations = 0;
    for (const auto& m : sim.machines) activations += m.activations;
    std::cout << "  " << c.name;
    for (std::size_t pad = std::string(c.name).size(); pad < 20; ++pad) std::cout << ' ';
    std::cout << sim.total_busy_time << "       " << c.schedule.machine_count()
              << "       " << activations << "        " << sim.total_energy << "\n";
  }

  // Idle-vs-sleep policy sweep on the best schedule (Section 5 power-down
  // tradeoff): short thresholds re-wake often, long thresholds burn idle
  // power; the sweet spot depends on wake_energy / idle_power.
  std::cout << "\nsleep-gap threshold sweep (auto-dispatch schedule):\n";
  for (const Time threshold : {0, 20, 60, 200, 1000000}) {
    EnergyModel m = model;
    m.sleep_gap_threshold = threshold;
    const SimulationResult sim = simulate(inst, dispatched.schedule, m);
    std::cout << "  threshold " << threshold << " -> energy " << sim.total_energy
              << "\n";
  }
  return 0;
}
