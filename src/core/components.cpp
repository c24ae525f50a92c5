#include "core/components.hpp"

#include <algorithm>

namespace busytime {

std::vector<std::size_t> component_bounds(const Instance& inst) {
  std::vector<std::size_t> bounds{0};
  const auto& ids = inst.ids_by_start();
  const std::vector<Job>& jobs = inst.jobs();
  for_each_component(
      ids.size(),
      [&](std::size_t k) -> const Job& { return jobs[static_cast<std::size_t>(ids[k])]; },
      [&](std::size_t, std::size_t hi) { bounds.push_back(hi); });
  return bounds;
}

std::vector<std::vector<JobId>> connected_components(const Instance& inst) {
  const auto& ids = inst.ids_by_start();
  const std::vector<std::size_t> bounds = component_bounds(inst);
  std::vector<std::vector<JobId>> components;
  components.reserve(bounds.size() - 1);
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
    components.emplace_back(ids.begin() + static_cast<std::ptrdiff_t>(bounds[i]),
                            ids.begin() + static_cast<std::ptrdiff_t>(bounds[i + 1]));
  return components;
}

Schedule stitch_component_schedules(const InstanceView& view,
                                    const std::vector<Schedule>& parts) {
  Schedule out(view.instance().size());
  MachineId base = 0;
  for (std::size_t i = 0; i < view.component_count(); ++i) {
    const JobIdRange comp = view.component_ids(i);
    const Schedule& part = parts[i];
    MachineId max_used = -1;
    for (std::size_t j = 0; j < comp.size(); ++j) {
      const MachineId m = part.machine_of(static_cast<JobId>(j));
      if (m == Schedule::kUnscheduled) continue;
      out.assign(comp[j], base + m);
      max_used = std::max(max_used, m);
    }
    base += max_used + 1;
  }
  return out;
}

}  // namespace busytime
