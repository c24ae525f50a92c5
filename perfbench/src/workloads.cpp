#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/bounds.hpp"
#include "exec/thread_pool.hpp"
#include "net/binstream.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "support.hpp"
#include "util/prng.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using namespace busytime;

namespace {

constexpr int kCapacity = 8;
constexpr double kCancelRate = 0.2;

/// The i-th input seed of a run: distinct per input, fixed by the run seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t state = seed * 0x100000001b3ull + i;
  return splitmix64(state);
}

TraceParams trace_params(int n, std::uint64_t seed) {
  TraceParams p;
  p.n = n;
  p.g = kCapacity;
  p.seed = seed;
  return p;
}

CancelParams cancel_params(std::uint64_t seed) {
  CancelParams c;
  c.cancel_rate = kCancelRate;
  c.seed = seed;
  return c;
}

Kind kind(const std::vector<Input>& inputs, std::size_t input, const std::string& spec) {
  return Kind{inputs[input].name + "/" + spec, input, SolverSpec::parse(spec)};
}

// ------------------------------------------------------------------ bulk --

class Bulk final : public Workload {
 public:
  explicit Bulk(const Options& o) : Workload(o) {
    const int n = o.tiny ? 3000 : 150000;
    for (std::uint64_t i = 0; i < kInstances; ++i)
      inputs_.push_back({"trace" + std::to_string(i),
                         EventTrace(gen_trace(trace_params(n, derive(o.seed, i)))),
                         false});
    for (std::size_t i = 0; i < inputs_.size(); ++i)
      kinds_.push_back(kind(inputs_, i, "auto"));
    finish_setup(ServiceConfig{}, /*clients=*/1, /*remote=*/true, /*cold_load=*/true);
  }

 protected:
  SolveResult send(int client, std::size_t k, double* solve_ms) override {
    net::Client& c = *clients_[static_cast<std::size_t>(client)].client;
    const net::RemoteHandle handle = c.load(inputs_[kinds_[k].input].trace.base());
    const double t0 = now_ms();
    SolveResult r = c.solve(handle, kinds_[k].spec);
    *solve_ms = now_ms() - t0;
    c.release(handle);
    return r;
  }

 private:
  /// Distinct instances cycled through, each checked against its own
  /// reference; every load is cold on the server regardless.
  static constexpr std::uint64_t kInstances = 12;
};

// ----------------------------------------------------------------- mixed --

class Mixed final : public Workload {
 public:
  explicit Mixed(const Options& o) : Workload(o) {
    const int n = o.tiny ? 400 : 2000;
    const int clique_n = o.tiny ? 60 : 300;
    std::uint64_t next_seed = 0;
    for (int copy = 0; copy < kCopies; ++copy) {
      const std::string tag = std::to_string(copy);
      GenParams p;
      p.n = n;
      p.g = kCapacity;
      p.seed = derive(o.seed, next_seed++);
      inputs_.push_back({"general" + tag, EventTrace(gen_general(p)), false});
      p.seed = derive(o.seed, next_seed++);
      inputs_.push_back({"proper" + tag, EventTrace(gen_proper(p)), false});
      p.n = clique_n;
      p.seed = derive(o.seed, next_seed++);
      inputs_.push_back({"proper_clique" + tag, EventTrace(gen_proper_clique(p)), false});
      const TraceParams tp = trace_params(n, derive(o.seed, next_seed++));
      inputs_.push_back({"cancellable" + tag,
                         gen_cancellable(tp, cancel_params(derive(o.seed, next_seed++))),
                         true});
    }
    for (std::size_t base = 0; base < inputs_.size(); base += 4) {
      // Half the clique's lower bound: the throughput solver must choose.
      const CostBounds b = compute_bounds(inputs_[base + 2].target());
      const Time budget = b.lower_bound_times_g() / b.g / 2;
      for (const Kind& k :
           {kind(inputs_, base, "auto"), kind(inputs_, base, "first_fit"),
            kind(inputs_, base + 1, "auto"), kind(inputs_, base + 1, "best_cut"),
            kind(inputs_, base + 2, "proper_clique_dp"),
            kind(inputs_, base + 2, "tput_proper_clique:budget=" + std::to_string(budget)),
            kind(inputs_, base + 3, "online_first_fit"),
            kind(inputs_, base + 3, "online_best_fit"),
            kind(inputs_, base + 3, "epoch_hybrid")})
        kinds_.push_back(k);
    }
    ServiceConfig config;
    config.workers = 2;
    finish_setup(config, /*clients=*/4, /*remote=*/true, /*cold_load=*/false);
  }

 private:
  /// Independent draws of the four input classes, so a run averages over
  /// more than one instance of each.
  static constexpr int kCopies = 4;

 protected:
  SolveResult send(int client, std::size_t k, double* solve_ms) override {
    Caller& s = clients_[static_cast<std::size_t>(client)];
    const double t0 = now_ms();
    SolveResult r = s.client->solve(s.handles[kinds_[k].input], kinds_[k].spec);
    *solve_ms = now_ms() - t0;
    return r;
  }
};

// ---------------------------------------------------------------- stream --

class Stream final : public Workload {
 public:
  explicit Stream(const Options& o) : Workload(o) {
    const int n = o.tiny ? 3000 : 150000;
    for (std::uint64_t copy = 0; copy < kCopies; ++copy) {
      inputs_.push_back({"cancellable" + std::to_string(copy),
                         gen_cancellable(trace_params(n, derive(o.seed, 2 * copy)),
                                         cancel_params(derive(o.seed, 2 * copy + 1))),
                         true});
      for (const char* policy : {"online_first_fit", "online_best_fit", "epoch_hybrid"})
        kinds_.push_back(kind(inputs_, copy, policy));
    }
    finish_setup(ServiceConfig{}, /*clients=*/1, /*remote=*/false, /*cold_load=*/false);
  }

 private:
  /// Independent traces, so a run averages over more than one draw.
  static constexpr std::uint64_t kCopies = 2;

 protected:
  SolveResult send(int client, std::size_t k, double* solve_ms) override {
    Caller& s = clients_[static_cast<std::size_t>(client)];
    const double t0 = now_ms();
    SolveResult r = service_->submit(s.local[kinds_[k].input], kinds_[k].spec).get();
    *solve_ms = now_ms() - t0;
    return r;
  }
};

}  // namespace

Workload::Workload(const Options& options)
    : options_(options), corrupt_pending_(options.corrupt) {}

Workload::~Workload() {
  clients_.clear();  // close connections before the server goes away
  if (server_ != nullptr) {
    server_->stop();
    reactor_.join();
  }
}

std::uint64_t Workload::wire_bytes(std::size_t kind) const { return wire_bytes_[kind]; }

double Workload::busy_time_ratio() const {
  double cost = 0, lower_bound = 0;
  for (std::size_t k = 0; k < kinds_.size(); ++k)
    if (kinds_[k].spec.options.budget < 0) {
      cost += static_cast<double>(references_[k].cost);
      lower_bound += references_[k].bounds.lower_bound();
    }
  return lower_bound > 0 ? cost / lower_bound : 0;
}

void Workload::finish_setup(ServiceConfig config, int clients, bool remote,
                            bool cold_load) {
  cold_load_ = cold_load;
  service_ = std::make_unique<Service>(config);

  // References: in-process blocking solves on the serving Service.  They and
  // the wire byte counts are the benchmark's own checks, timed apart.
  const double checks_start = now_ms();
  for (const Kind& k : kinds_) {
    const Input& in = inputs_[k.input];
    const InstanceHandle h = in.cancellable ? service_->load(in.trace)
                                            : service_->load(in.trace.base());
    references_.push_back(service_->solve(h, k.spec));
    if (!sandwich_ok(references_.back(), k.spec, in.target().size()))
      throw std::runtime_error("reference for " + k.label +
                               " fails the Observation 2.1 sandwich");
  }

  // Exact wire bytes per request: solve frame + result frame, plus the
  // load/handle and release/released frames of a cold-load request.
  constexpr std::uint64_t kHeader = net::kFrameHeaderBytes;
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    const Input& in = inputs_[kinds_[k].input];
    std::uint64_t bytes = kHeader + 8 + net::to_payload(kinds_[k].spec).size() +
                          kHeader + net::to_payload(references_[k]).size();
    if (cold_load)
      bytes += kHeader +
               (in.cancellable ? net::to_payload(in.trace)
                               : net::to_payload(in.trace.base()))
                   .size() +
               kHeader + 8 + 8 + 4 + kHeader + 8 + kHeader;
    wire_bytes_.push_back(bytes);
  }
  check_ms_ = now_ms() - checks_start;

  online_input_ = inputs_.front().trace;
  for (const Input& in : inputs_)
    if (in.cancellable) {
      online_input_ = in.trace;
      break;
    }
  if (!online_input_.has_cancels())
    online_input_ = with_random_cancels(inputs_.front().trace.base(),
                                        cancel_params(derive(options_.seed, 99)));

  if (remote) {
    server_ = std::make_unique<net::Server>(*service_);
    reactor_ = std::thread([this] { server_->run(); });
  }
  clients_.resize(static_cast<std::size_t>(clients));
  for (Caller& s : clients_) {
    if (remote) {
      s.client = std::make_unique<net::Client>("127.0.0.1", server_->port());
      if (!cold_load)
        for (const Input& in : inputs_)
          s.handles.push_back(in.cancellable ? s.client->load_trace(in.trace)
                                             : s.client->load(in.trace.base()));
    } else {
      for (const Input& in : inputs_) s.local.push_back(service_->load(in.trace));
    }
  }

  // Warm-up, checked like the rest: a full cycle of kinds per client builds
  // every warm handle's view; cold-load requests need only one.
  for (int c = 0; c < clients; ++c)
    for (std::size_t k = 0; k < (cold_load ? 1 : kinds_.size()); ++k) {
      double solve_ms = 0;
      if (!same_result(send(c, k, &solve_ms), references_[k]))
        throw std::runtime_error("warm-up response for " + kinds_[k].label +
                                 " differs from its reference");
    }
}

Outcome Workload::next(int client) {
  Caller& s = clients_[static_cast<std::size_t>(client)];
  // Clients start at evenly spaced points of the kind cycle.
  return request(client, (s.sent++ + static_cast<std::size_t>(client) *
                                         kinds_.size() / clients_.size()) %
                             kinds_.size());
}

Outcome Workload::request(int client, std::size_t kind) {
  Outcome out;
  out.kind = kind;
  const Kind& k = kinds_[kind];
  const double t0 = now_ms();
  try {
    SolveResult r = send(client, kind, &out.solve_ms);
    out.end_ms = now_ms();
    out.wall_ms = r.wall_ms;
    if (corrupt_pending_.exchange(false)) r.cost += 1;
    out.ok = same_result(r, references_[kind]) &&
             sandwich_ok(r, k.spec, inputs_[k.input].target().size());
  } catch (const std::exception&) {
    out.end_ms = now_ms();
    out.ok = false;
  }
  out.latency_ms = out.end_ms - t0;
  return out;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "bulk_150k") return std::make_unique<Bulk>(options);
  if (options.workload == "serve_mixed") return std::make_unique<Mixed>(options);
  if (options.workload == "stream_cancel_150k") return std::make_unique<Stream>(options);
  throw std::invalid_argument("unknown workload '" + options.workload +
                              "' (bulk_150k, serve_mixed, stream_cancel_150k)");
}

LoopResult run_loop(Workload& w, double seconds) {
  constexpr int kSlices = 10;
  const obs::MetricsSnapshot before = w.service().metrics_snapshot();
  const exec::PoolStats pool_before = w.service().pool_stats();
  std::vector<double> edge_ms(kSlices + 1), cpu_ms(kSlices + 1);
  cpu_ms[0] = process_cpu_ms();
  edge_ms[0] = now_ms();
  const double deadline = edge_ms[0] + seconds * 1e3;

  std::vector<std::vector<Outcome>> per_client(static_cast<std::size_t>(w.clients()));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.clients(); ++c)
    threads.emplace_back([&w, &per_client, c, deadline] {
      std::vector<Outcome>& mine = per_client[static_cast<std::size_t>(c)];
      do {
        mine.push_back(w.next(c));
      } while (now_ms() < deadline);
    });
  // Sample the slice edges while the clients run; the last slice ends when
  // the final in-flight requests have drained.
  for (int i = 1; i < kSlices; ++i) {
    const double edge = edge_ms[0] + seconds * 1e3 * i / kSlices;
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(edge - now_ms()));
    edge_ms[static_cast<std::size_t>(i)] = now_ms();
    cpu_ms[static_cast<std::size_t>(i)] = process_cpu_ms();
  }
  for (std::thread& t : threads) t.join();
  edge_ms[kSlices] = now_ms();
  cpu_ms[kSlices] = process_cpu_ms();

  LoopResult out;
  out.wall_s = (edge_ms[kSlices] - edge_ms[0]) / 1e3;
  out.cpu_ms = cpu_ms[kSlices] - cpu_ms[0];
  out.slices.resize(kSlices);
  for (std::size_t i = 0; i < out.slices.size(); ++i) {
    out.slices[i].seconds = (edge_ms[i + 1] - edge_ms[i]) / 1e3;
    out.slices[i].cpu_ms = cpu_ms[i + 1] - cpu_ms[i];
  }
  for (auto& outcomes : per_client)
    for (Outcome& o : outcomes) {
      ++out.attempted;
      if (!o.ok) ++out.failed;
      const auto after_edge = std::upper_bound(edge_ms.begin() + 1, edge_ms.end() - 1, o.end_ms);
      out.slices[static_cast<std::size_t>(after_edge - edge_ms.begin() - 1)]
          .latency_ms.push_back(o.latency_ms);
      // Each slice is credited with the share of the request it overlaps.
      const double start = o.end_ms - o.latency_ms;
      for (std::size_t i = 0; i < out.slices.size() && o.latency_ms > 0; ++i) {
        const double overlap =
            std::min(o.end_ms, edge_ms[i + 1]) - std::max(start, edge_ms[i]);
        if (overlap > 0) out.slices[i].requests += overlap / o.latency_ms;
      }
      out.outcomes.push_back(o);
    }

  const obs::MetricsSnapshot after = w.service().metrics_snapshot();
  const obs::HistogramSnapshot* wait0 = before.histogram(obs::metric::kServiceQueueWaitUs);
  const obs::HistogramSnapshot* wait1 = after.histogram(obs::metric::kServiceQueueWaitUs);
  if (wait0 != nullptr && wait1 != nullptr && wait1->count > wait0->count)
    out.queue_wait_ms_mean = static_cast<double>(wait1->sum - wait0->sum) /
                             static_cast<double>(wait1->count - wait0->count) / 1e3;
  const exec::PoolStats pool_after = w.service().pool_stats();
  const double busy = static_cast<double>(pool_after.busy_ns_total - pool_before.busy_ns_total);
  const double idle = static_cast<double>(pool_after.idle_ns_total - pool_before.idle_ns_total);
  out.pool_utilization = busy + idle > 0 ? busy / (busy + idle) : 0;
  out.pool_steals = static_cast<double>(pool_after.steals - pool_before.steals);
  return out;
}

}  // namespace perfbench
