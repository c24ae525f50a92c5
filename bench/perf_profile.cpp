// PERF — profile microbench: measures the flat SoA step-function profile
// (algo/profile.hpp) against the node-based map ablation on the two hot
// operations (fits, add) and on a component-wise FirstFit solve (the shape
// the production dispatcher runs — one solve per connected component; a
// single whole-trace profile would grow to tens of thousands of segments,
// where the map's O(log n) splice wins and which the dispatcher never
// does), reports the busy-window prefilter's deterministic hit counters and
// how many components the count grid solved, times solve_first_fit against
// the flat-profile kernel forced on a set of anchor shapes (the inputs the
// kernel rule was calibrated on, and its boundary), and emits a
// machine-readable BENCH_profile.json.
//
// Timing fields use the diff-ignored suffixes (*_ns, *_ms, *_per_sec,
// *_speedup); everything else — op checksums, fits outcomes, machine and
// segment counts, the window-rejection counters, the kernel each shape
// takes, the `identical` flags — is deterministic in (n, g, seed) and
// gated by `busytime_cli diff` against the committed baseline.
//
// Flags:
//   --n=N        jobs in the firstfit-section trace      (default 60000;
//                the shapes scale with it)
//   --g=G        machine capacity                        (default 8)
//   --seed=S     workload seed                           (default 2012)
//   --ops=K      intervals per micro-section sequence    (default 4000)
//   --probes=P   fits probes on the built profile        (default 40000)
//   --repeats=K  timed repetitions, best-of              (default 3)
//   --out=FILE   JSON output path                        (default BENCH_profile.json)
//   --smoke      CI mode: n=10000, ops=1000, probes=8000, 1 repeat
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "algo/first_fit.hpp"
#include "algo/profile.hpp"
#include "core/instance_view.hpp"
#include "io/json.hpp"
#include "support/first_fit_oracles.hpp"
#include "util/flags.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The micro-section op stream: a seeded interval sequence over a horizon
/// wide enough that profiles grow realistic segment counts.
std::vector<Interval> micro_intervals(std::size_t ops, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Interval> ivs;
  ivs.reserve(ops);
  const Time horizon = static_cast<Time>(ops) * 8;
  for (std::size_t i = 0; i < ops; ++i) {
    const Time a = rng.uniform_int(0, horizon);
    const Time len = rng.uniform_int(1, 64);
    ivs.push_back({a, a + len});
  }
  return ivs;
}

std::vector<Interval> micro_probes(std::size_t probes, std::uint64_t seed,
                                   std::size_t ops) {
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<Interval> ivs;
  ivs.reserve(probes);
  const Time horizon = static_cast<Time>(ops) * 8;
  for (std::size_t i = 0; i < probes; ++i) {
    const Time a = rng.uniform_int(0, horizon);
    const Time len = rng.uniform_int(1, 256);
    ivs.push_back({a, a + len});
  }
  return ivs;
}

/// One micro-section arm: builds the profile from `build` (timing add),
/// then answers every probe (timing fits).  The checksums are deterministic
/// and must be identical across arms.
struct MicroResult {
  double add_ns = 0;        ///< per add, best-of-repeats
  double fits_ns = 0;       ///< per fits probe, best-of-repeats
  std::int64_t fits_true = 0;
  Time busy = 0;
  std::int64_t segments = 0;
};

template <typename Profile>
MicroResult run_micro(const std::vector<Interval>& build,
                      const std::vector<Interval>& probes, int g,
                      int repeats) {
  MicroResult r;
  r.add_ns = 1e300;
  r.fits_ns = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    Profile p;
    const double t0 = now_ms();
    for (const Interval& iv : build) p.add(iv);
    const double t1 = now_ms();
    std::int64_t hits = 0;
    for (const Interval& iv : probes) hits += p.fits(iv, g) ? 1 : 0;
    const double t2 = now_ms();
    r.add_ns = std::min(r.add_ns, (t1 - t0) * 1e6 / build.size());
    r.fits_ns = std::min(r.fits_ns, (t2 - t1) * 1e6 / probes.size());
    r.fits_true = hits;
    r.busy = p.busy_time();
    r.segments = static_cast<std::int64_t>(p.segment_count());
  }
  return r;
}

/// One anchor of the shapes section: the instances it solves, each as one
/// solve_first_fit call.
struct Shape {
  std::string name;
  std::vector<Instance> instances;
};

/// Solves one shape through solve_first_fit and through the flat kernel
/// forced; the counters are the production path's, summed.
json::Value run_shape(const Shape& shape, int repeats) {
  FirstFitStats total;
  std::int64_t jobs = 0;
  bool identical = true;
  for (const Instance& inst : shape.instances) {
    FirstFitStats st;
    const Schedule chosen = solve_first_fit(inst, &st);
    identical = identical &&
                chosen.assignment() == solve_first_fit_flat(inst).assignment();
    jobs += static_cast<std::int64_t>(inst.size());
    total.machines += st.machines;
    total.profile_checks += st.profile_checks;
    total.segments += st.segments;
    total.grid += st.grid;
  }
  // The two arms alternate within each repetition, so neither always runs
  // on a colder cache or allocator than the other.
  double solve_ms = 1e300, flat_ms = 1e300;
  for (int rep = 0; rep < repeats; ++rep) {
    double t0 = now_ms();
    for (const Instance& inst : shape.instances) solve_first_fit(inst);
    solve_ms = std::min(solve_ms, now_ms() - t0);
    t0 = now_ms();
    for (const Instance& inst : shape.instances) solve_first_fit_flat(inst);
    flat_ms = std::min(flat_ms, now_ms() - t0);
  }
  const std::uint64_t count = shape.instances.size();
  json::Value v = json::Value::object();
  v.set("instances", static_cast<std::int64_t>(count));
  v.set("jobs", jobs);
  v.set("kernel", total.grid == count ? "grid"
                  : total.grid == 0   ? "flat"
                                      : "mixed");
  v.set("machines", static_cast<std::int64_t>(total.machines));
  v.set("profile_checks", static_cast<std::int64_t>(total.profile_checks));
  v.set("segments", static_cast<std::int64_t>(total.segments));
  v.set("identical", identical);
  v.set("solve_ms", solve_ms);
  v.set("flat_solve_ms", flat_ms);
  return v;
}

/// `jobs` back to back, each `length` long, except that the last one runs
/// `extra` longer: with g = 2 the hull holds 128 · n grid cells exactly
/// when extra = 0, one cell pair more when extra = 1.
Instance touching_chain(int jobs, Time length, Time extra) {
  std::vector<Job> chain;
  for (int i = 0; i < jobs; ++i)
    chain.emplace_back(i * length, (i + 1) * length + (i + 1 == jobs ? extra : 0));
  return Instance(std::move(chain), 2);
}

/// The anchors, scaled by n / 60000 (n = 60000 is the full run): what the
/// served path solves, the family sizes the rule was calibrated on, the
/// wide-time inputs only the flat profile holds, and the rule's boundary.
std::vector<Shape> anchor_shapes(int n, int g, std::uint64_t seed) {
  const auto scaled = [n](int full) {
    return std::max(1, static_cast<int>(static_cast<std::int64_t>(full) * n / 60000));
  };
  std::vector<Shape> shapes;
  const auto single = [&shapes](std::string name, Instance inst) {
    shapes.push_back({std::move(name), {}});
    shapes.back().instances.push_back(std::move(inst));
  };

  // Online epoch batches: many 64-job traces.
  Shape batches{"trace_batches_64", {}};
  for (int i = 0; i < scaled(256); ++i) {
    TraceParams tp;
    tp.n = 64;
    tp.g = g;
    tp.seed = seed + static_cast<std::uint64_t>(i);
    batches.instances.push_back(gen_trace(tp));
  }
  shapes.push_back(std::move(batches));

  // A 10x denser trace: one component holding every job.
  TraceParams dense;
  dense.n = scaled(150000);
  dense.g = g;
  dense.seed = seed;
  dense.arrival_rate = 5.0;
  single("trace_dense", gen_trace(dense));

  // The families at the served mixed input's size and at 20k jobs.
  GenParams gp;
  gp.g = g;
  gp.seed = seed;
  gp.n = scaled(2000);
  single("general_2000", gen_general(gp));
  gp.n = scaled(20000);
  single("general_20k", gen_general(gp));
  single("clique_20k", gen_clique(gp));
  single("proper_20k", gen_proper(gp));
  single("one_sided_20k", gen_one_sided(gp));

  // Wide times: long jobs on a 10^6 horizon, a sparse 10^8 horizon, and a
  // trace with every timestamp scaled by 1000, solved per component.
  GenParams wide = gp;
  wide.n = scaled(50000);
  wide.horizon = 1000000;
  wide.min_len = 1000;
  wide.max_len = 100000;
  single("general_wide_50k", gen_general(wide));
  GenParams sparse = gp;
  sparse.horizon = 100000000;
  single("general_horizon_1e8", gen_general(sparse));
  TraceParams tp;
  tp.n = n;
  tp.g = g;
  tp.seed = seed;
  const Instance trace = gen_trace(tp);
  std::vector<Job> stretched = trace.jobs();
  for (Job& job : stretched)
    job.interval = {job.interval.start * 1000, job.interval.completion * 1000};
  const Instance scaled_trace(std::move(stretched), g);
  const InstanceView view(scaled_trace, 1, nullptr, 0);
  Shape times_1000{"trace_times_x1000", {}};
  for (std::size_t i = 0; i < view.component_count(); ++i)
    times_1000.instances.push_back(view.component_instance(i));
  shapes.push_back(std::move(times_1000));

  // The rule's boundary: 128 cells per job take the grid, one more does not.
  single("rule_edge_grid", touching_chain(scaled(20000), 64, 0));
  single("rule_edge_flat", touching_chain(scaled(20000), 64, 1));
  return shapes;
}

int main_impl(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke");

  const auto n = static_cast<int>(flags.get_int("n", smoke ? 10000 : 60000));
  const int g = static_cast<int>(flags.get_int("g", 8));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2012));
  const auto ops =
      static_cast<std::size_t>(flags.get_int("ops", smoke ? 1000 : 4000));
  const auto probes =
      static_cast<std::size_t>(flags.get_int("probes", smoke ? 8000 : 40000));
  const int repeats = static_cast<int>(flags.get_int("repeats", smoke ? 1 : 3));
  const std::string out_path = flags.get("out", "BENCH_profile.json");

  // ------------------------------------------------------- micro: fits/add
  const std::vector<Interval> build = micro_intervals(ops, seed);
  const std::vector<Interval> probe = micro_probes(probes, seed, ops);
  const MicroResult flat = run_micro<FlatProfile>(build, probe, g, repeats);
  const MicroResult map = run_micro<MapStepProfile>(build, probe, g, repeats);
  const bool micro_identical = flat.fits_true == map.fits_true &&
                               flat.busy == map.busy &&
                               flat.segments == map.segments;

  // -------------------- firstfit: component-wise solve (dispatcher shape)
  TraceParams tp;
  tp.n = n;
  tp.g = g;
  tp.seed = seed;
  tp.diurnal = true;
  const Instance trace = gen_trace(tp);
  const InstanceView view(trace, 1, nullptr, 0);
  const std::size_t components = view.component_count();
  // Warm the per-component memoized orders outside every timing.
  for (std::size_t i = 0; i < components; ++i)
    view.component_instance(i).ids_by_length_desc();

  double solve_ms = 1e300;
  double map_solve_ms = 1e300;
  FirstFitStats stats;
  for (int rep = 0; rep < repeats; ++rep) {
    FirstFitStats total;
    const double t0 = now_ms();
    for (std::size_t i = 0; i < components; ++i) {
      FirstFitStats st;
      solve_first_fit(view.component_instance(i), &st);
      total.placements += st.placements;
      total.window_accepts += st.window_accepts;
      total.profile_checks += st.profile_checks;
      total.machines += st.machines;
      total.segments += st.segments;
      total.grid += st.grid;
    }
    solve_ms = std::min(solve_ms, now_ms() - t0);
    stats = total;
  }
  for (int rep = 0; rep < repeats; ++rep) {
    const double t0 = now_ms();
    for (std::size_t i = 0; i < components; ++i)
      solve_first_fit_map(view.component_instance(i));
    map_solve_ms = std::min(map_solve_ms, now_ms() - t0);
  }
  bool solve_identical = true;
  for (std::size_t i = 0; i < components; ++i) {
    const Instance& sub = view.component_instance(i);
    solve_identical =
        solve_identical && solve_first_fit(sub).assignment() ==
                               solve_first_fit_map(sub).assignment();
  }
  // Deterministic gated ratio: the share of placements the busy-window hull
  // scan resolved without any profile lookup, in percent (integer).
  const std::int64_t window_hit_pct =
      stats.placements == 0
          ? 0
          : static_cast<std::int64_t>(100 * stats.window_accepts /
                                      stats.placements);

  // ------------------------------ shapes: production vs flat kernel forced
  json::Value shapes = json::Value::object();
  for (const Shape& shape : anchor_shapes(n, g, seed)) {
    for (const Instance& inst : shape.instances) inst.ids_by_length_desc();
    shapes.set(shape.name, run_shape(shape, repeats));
  }

  // ---------------------------------------------------------------- emit
  json::Value root = json::Value::object();
  root.set("bench", "profile");
  root.set("smoke", smoke);
  root.set("g", g);
  root.set("seed", static_cast<std::int64_t>(seed));

  json::Value micro = json::Value::object();
  micro.set("ops", static_cast<std::int64_t>(ops));
  micro.set("probes", static_cast<std::int64_t>(probes));
  micro.set("flat_add_ns", flat.add_ns);
  micro.set("flat_fits_ns", flat.fits_ns);
  micro.set("map_add_ns", map.add_ns);
  micro.set("map_fits_ns", map.fits_ns);
  micro.set("fits_map_vs_flat_speedup",
            flat.fits_ns > 0 ? map.fits_ns / flat.fits_ns : 0.0);
  micro.set("fits_true", flat.fits_true);
  micro.set("busy_time", static_cast<std::int64_t>(flat.busy));
  micro.set("segments", flat.segments);
  micro.set("identical", micro_identical);
  root.set("micro", std::move(micro));

  json::Value ff = json::Value::object();
  ff.set("jobs", static_cast<std::int64_t>(trace.size()));
  ff.set("components", static_cast<std::int64_t>(components));
  ff.set("solve_ms", solve_ms);
  ff.set("map_solve_ms", map_solve_ms);
  ff.set("jobs_per_sec", trace.size() / (solve_ms / 1000.0));
  ff.set("map_vs_flat_speedup", solve_ms > 0 ? map_solve_ms / solve_ms : 0.0);
  ff.set("identical", solve_identical);
  ff.set("machines", static_cast<std::int64_t>(stats.machines));
  ff.set("segments", static_cast<std::int64_t>(stats.segments));
  ff.set("window_accepts", static_cast<std::int64_t>(stats.window_accepts));
  ff.set("profile_checks", static_cast<std::int64_t>(stats.profile_checks));
  ff.set("window_hit_pct", window_hit_pct);
  ff.set("grid_components", static_cast<std::int64_t>(stats.grid));
  root.set("firstfit", std::move(ff));
  root.set("shapes", shapes);

  std::ofstream out(out_path);
  out << root.dump(2) << "\n";
  std::cout << "wrote " << out_path << "\n";

  Table table({"section", "metric", "flat", "map", "map/flat"});
  table.add_row({"micro", "add ns/op", Table::fmt(flat.add_ns),
                 Table::fmt(map.add_ns),
                 Table::fmt(flat.add_ns > 0 ? map.add_ns / flat.add_ns : 0.0)});
  table.add_row({"micro", "fits ns/op", Table::fmt(flat.fits_ns),
                 Table::fmt(map.fits_ns),
                 Table::fmt(flat.fits_ns > 0 ? map.fits_ns / flat.fits_ns : 0.0)});
  table.add_row({"firstfit", "solve ms", Table::fmt(solve_ms),
                 Table::fmt(map_solve_ms),
                 Table::fmt(solve_ms > 0 ? map_solve_ms / solve_ms : 0.0)});
  table.add_row({"firstfit", "window hit %",
                 Table::fmt(static_cast<long long>(window_hit_pct)), "-", "-"});
  table.print(std::cout);

  Table shape_table({"shape", "kernel", "solve ms", "flat ms", "flat/solve"});
  bool shapes_identical = true;
  for (const auto& [name, shape] : shapes.as_object()) {
    shapes_identical = shapes_identical && shape.at("identical").as_bool();
    const double shape_ms = shape.at("solve_ms").as_double();
    const double shape_flat_ms = shape.at("flat_solve_ms").as_double();
    shape_table.add_row({name, shape.at("kernel").as_string(), Table::fmt(shape_ms),
                         Table::fmt(shape_flat_ms),
                         Table::fmt(shape_ms > 0 ? shape_flat_ms / shape_ms : 0.0)});
  }
  shape_table.print(std::cout);

  if (!micro_identical) {
    std::cerr << "error: micro-section checksums diverged between the flat "
                 "and map profiles\n";
    return 1;
  }
  if (!solve_identical) {
    std::cerr << "error: flat and map FirstFit assignments diverged\n";
    return 1;
  }
  if (!shapes_identical) {
    std::cerr << "error: a shape's FirstFit assignment diverged between "
                 "solve_first_fit and the flat kernel\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace busytime

int main(int argc, char** argv) { return busytime::main_impl(argc, argv); }
