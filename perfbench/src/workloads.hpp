// The benchmark's three workloads and the closed loop that drives them.
//
//   bulk_150k           1 TCP connection; each request loads a cold
//                       150k-job trace, solves it with `auto`, releases it.
//   serve_mixed         4 TCP connections against a 2-worker Service; warm
//                       handles, a fixed cycle of nine small (input, spec)
//                       requests.
//   stream_cancel_150k  1 in-process caller; Service::submit on one warm
//                       150k-job cancellable trace, rotating the three
//                       online policies.
//
// Every workload is built from the seed alone, runs with the result cache
// off, and checks each response bit for bit against a reference computed
// in process at set-up.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "online/event.hpp"
#include "service/service.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test sizes: every instance shrinks so a run takes well under a
  /// second of solving.
  bool tiny = false;
  /// Corrupts the first measured response before it is checked (the
  /// self-test's proof that the gate catches a wrong answer).
  bool corrupt = false;
};

/// One input a workload serves.  Plain instances are traces without
/// retractions; `cancellable` inputs travel as event traces.
struct Input {
  std::string name;
  busytime::EventTrace trace;
  bool cancellable = false;

  /// The instance results are measured against (the residual workload).
  const busytime::Instance& target() const { return trace.residual(); }
};

/// One request shape: an input and the spec sent for it.
struct Kind {
  std::string label;
  std::size_t input = 0;
  busytime::SolverSpec spec;
};

/// What one closed-loop request produced.
struct Outcome {
  std::size_t kind = 0;
  double latency_ms = 0;
  double end_ms = 0;  ///< completion instant (now_ms clock)
  /// The solve call alone (bulk requests also load and release).
  double solve_ms = 0;
  double wall_ms = 0;  ///< SolveResult::wall_ms as returned
  bool ok = false;
};

class Workload {
 public:
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  int clients() const noexcept { return static_cast<int>(clients_.size()); }
  busytime::Service& service() noexcept { return *service_; }
  const std::vector<Input>& inputs() const noexcept { return inputs_; }
  const std::vector<Kind>& kinds() const noexcept { return kinds_; }
  /// Requests cross the TCP tier.
  bool remote() const noexcept { return server_ != nullptr; }
  /// Each request loads (and releases) its input instead of reusing a warm
  /// handle.
  bool cold_load() const noexcept { return cold_load_; }
  /// An event trace with retractions for the online-layer probes: the first
  /// cancellable input, or the first input with 20% random cancels.
  const busytime::EventTrace& online_input() const noexcept { return online_input_; }
  /// Exact bytes one request of `kind` moves over the wire, both ways.
  std::uint64_t wire_bytes(std::size_t kind) const;
  /// The paper's quality measure over one cycle of kinds: sum of reference
  /// cost over sum of Observation 2.1 lower bound, MinBusy kinds only.
  /// Every measured response equals its reference, so this is the ratio
  /// the served results reach; it depends on the seed alone.
  double busy_time_ratio() const;
  /// Part of set-up spent on the benchmark's own checks (reference solves,
  /// wire byte counts) rather than on the program.
  double check_ms() const noexcept { return check_ms_; }

  /// Runs `client`'s next request of its kind cycle; never throws (an
  /// exception is a failed outcome).
  Outcome next(int client);
  /// Runs and checks one request of `kind` on `client`'s connection.
  Outcome request(int client, std::size_t kind);

 protected:
  explicit Workload(const Options& options);

  /// Sends one request of `kind` on `client`'s connection; sets *solve_ms.
  virtual busytime::SolveResult send(int client, std::size_t kind,
                                      double* solve_ms) = 0;

  /// Reference results, server start, one connection per client (its warm
  /// handles loaded), then one warm-up cycle per client.
  void finish_setup(busytime::ServiceConfig config, int clients, bool remote,
                    bool cold_load);

  const Options options_;
  std::vector<Input> inputs_;
  std::vector<Kind> kinds_;

  struct Caller {
    std::unique_ptr<busytime::net::Client> client;
    std::vector<busytime::net::RemoteHandle> handles;  ///< per input, remote
    std::vector<busytime::InstanceHandle> local;       ///< per input, in process
    std::size_t sent = 0;
  };
  std::vector<Caller> clients_;
  std::unique_ptr<busytime::Service> service_;

 private:
  bool cold_load_ = false;
  double check_ms_ = 0;
  std::vector<busytime::SolveResult> references_;
  std::vector<std::uint64_t> wire_bytes_;
  busytime::EventTrace online_input_;
  std::unique_ptr<busytime::net::Server> server_;
  std::thread reactor_;
  std::atomic<bool> corrupt_pending_{false};
};

/// Builds the named workload from the seed: inputs, references, Service,
/// server and client connections, warmed up.  Throws std::invalid_argument on an
/// unknown name.
std::unique_ptr<Workload> make_workload(const Options& options);

/// One tenth of a measured window.
struct Slice {
  double seconds = 0;
  double cpu_ms = 0;  ///< process CPU time spent during the slice
  /// Requests worked on, each counted by the share of its duration that
  /// falls inside the slice (no rounding to whole requests).
  double requests = 0;
  /// Latencies of the requests that completed inside the slice.
  std::vector<double> latency_ms;
};

/// The accounting of one measured closed-loop window.
struct LoopResult {
  std::vector<Outcome> outcomes;
  std::vector<Slice> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0;
  double cpu_ms = 0;
  /// Service accounting diffed over the window.
  double queue_wait_ms_mean = 0;
  double pool_utilization = 0;
  double pool_steals = 0;
};

/// Drives every client of `w` in a closed loop for `seconds`.
LoopResult run_loop(Workload& w, double seconds);

}  // namespace perfbench
