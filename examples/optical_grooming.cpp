// Optical-network regenerator placement with traffic grooming (Section 1
// and Section 5, optical applications).
//
// Lightpaths on a 64-node line must be colored; up to g lightpaths of one
// color share the regenerators along their span.  MinBusy minimizes total
// regenerators; the budget version admits the most lightpaths under a
// regenerator budget.  Also demos the tree-topology extension.
//
//   $ ./optical_grooming [--paths=120] [--g=4] [--seed=7]
#include <iostream>

#include "busytime.hpp"
#include "sim/regenerator.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"

int main(int argc, char** argv) {
  using namespace busytime;
  const Flags flags(argc, argv);
  const int n_paths = static_cast<int>(flags.get_int("paths", 120));
  const int grooming = static_cast<int>(flags.get_int("g", 4));
  Rng rng(static_cast<std::uint64_t>(flags.get_int("seed", 7)));

  // --- Line topology ----------------------------------------------------
  const std::int32_t nodes = 64;
  std::vector<Lightpath> demands;
  for (int i = 0; i < n_paths; ++i) {
    const auto a = static_cast<std::int32_t>(rng.uniform_int(0, nodes - 2));
    const auto b = static_cast<std::int32_t>(
        rng.uniform_int(a + 1, std::min<std::int64_t>(nodes - 1, a + 20)));
    demands.push_back({a, b});
  }
  const Instance inst = lightpaths_to_instance(demands, grooming);
  std::cout << "line with " << nodes << " nodes, " << n_paths
            << " lightpaths, grooming factor " << grooming << "\n";

  const Schedule ungroomed = one_job_per_machine(inst);
  const DispatchResult groomed = solve_minbusy_auto(inst);
  const RegeneratorReport before = count_regenerators(inst, ungroomed);
  const RegeneratorReport after = count_regenerators(inst, groomed.schedule);
  std::cout << "  without grooming: " << before.regenerators << " regenerators ("
            << before.colors_used << " colors)\n";
  std::cout << "  with grooming:    " << after.regenerators << " regenerators ("
            << after.colors_used << " colors)\n";

  // Budgeted admission on the busiest cross-section (a clique of paths).
  const PeakOverlap peak = peak_overlap(inst.intervals());
  std::vector<JobId> through;
  for (std::size_t j = 0; j < inst.size(); ++j)
    if (inst.jobs()[j].interval.contains_time(peak.time))
      through.push_back(static_cast<JobId>(j));
  const Instance bottleneck = inst.restricted_to(through);
  std::cout << "\nbusiest fiber segment at node " << peak.time << ": "
            << bottleneck.size() << " paths\n";
  for (const Time budget : {10, 25, 50}) {
    const TputResult r = solve_clique_tput(bottleneck, budget);
    std::cout << "  regenerator-length budget " << budget << " -> admits "
              << r.throughput << "/" << bottleneck.size() << " paths\n";
  }

  // --- Ring topology (Section 5) ----------------------------------------
  const Time circumference = 200;
  std::vector<Arc> arcs;
  for (int i = 0; i < n_paths / 2; ++i)
    arcs.push_back({rng.uniform_int(0, circumference - 1), rng.uniform_int(5, 60)});
  const RingInstance ring(std::move(arcs), circumference, grooming);
  const RingSchedule ring_schedule = solve_ring_bucket_first_fit(ring);
  std::cout << "\nring with circumference " << circumference << ": "
            << ring.size() << " arcs -> cost " << ring_schedule.cost(ring)
            << " on " << ring_schedule.machine_count() << " colors (len bound "
            << ring.total_length() << ")\n";

  // --- Tree topology (Section 5) -----------------------------------------
  std::vector<int> parent{-1};
  std::vector<Time> weight{0};
  for (int v = 1; v < 40; ++v) {
    parent.push_back(static_cast<int>(rng.uniform_int(0, v - 1)));
    weight.push_back(rng.uniform_int(1, 5));
  }
  const Tree tree(parent, weight);
  std::vector<TreePath> tree_paths;
  for (int i = 0; i < 50; ++i) {
    const int u = static_cast<int>(rng.uniform_int(0, 39));
    int v = static_cast<int>(rng.uniform_int(0, 39));
    if (u == v) v = (v + 1) % 40;
    tree_paths.push_back({u, v});
  }
  const TreeSchedule tree_schedule = solve_tree_one_sided(tree, tree_paths, grooming);
  std::cout << "tree with 40 nodes: " << tree_paths.size() << " paths -> cost "
            << tree_schedule.cost << " on " << tree_schedule.machines_used
            << " colors (ungroomed " << tree_paths_total_length(tree, tree_paths)
            << ")\n";
  return 0;
}
