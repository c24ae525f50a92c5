#include "layers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <exception>
#include <future>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "algo/dispatch.hpp"
#include "algo/first_fit.hpp"
#include "api/registry.hpp"
#include "core/bounds.hpp"
#include "core/instance_view.hpp"
#include "core/validate.hpp"
#include "net/binstream.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "online/engine_stats.hpp"
#include "online/stream_driver.hpp"

namespace perfbench {

using namespace busytime;

namespace {

/// Request ids of the spans: request replays count from 1, the loads of
/// warm handles from kLoadRequestBase (plus the input index), the layer
/// probes from kProbeRequestBase.
constexpr int kLoadRequestBase = 500;
constexpr int kProbeRequestBase = 1000;

/// Runs `fn` on the single worker of `pool` and waits for it.  The served
/// path runs every request on a Service pool worker; running the replay
/// there too makes nested parallel_for calls behave as they do in service.
template <typename Fn>
void on_worker(exec::ThreadPool& pool, Fn&& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  pool.submit([&fn, &done] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  finished.get();
}

/// A connected loopback TCP pair: the kernel half of the wire, without the
/// reactor.  transfer() pushes bytes in at one end and returns once all of
/// them have come out of the other.
class Loopback {
 public:
  Loopback() {
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    const bool listening =
        listener >= 0 &&
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
        ::listen(listener, 1) == 0 &&
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
    send_fd_ = listening ? ::socket(AF_INET, SOCK_STREAM, 0) : -1;
    if (send_fd_ >= 0 &&
        ::connect(send_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      recv_fd_ = ::accept(listener, nullptr, nullptr);
    if (listener >= 0) ::close(listener);
    if (recv_fd_ < 0) {
      if (send_fd_ >= 0) ::close(send_fd_);
      throw std::runtime_error("cannot open a loopback TCP connection");
    }
    const int one = 1;
    ::setsockopt(send_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Loopback() {
    ::close(send_fd_);
    ::close(recv_fd_);
  }
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  void transfer(const std::string& bytes) {
    bool sent = true;
    auto send_all = [this, &bytes, &sent] {
      for (std::size_t off = 0; off < bytes.size();) {
        const ssize_t k = ::send(send_fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (k < 0 && errno == EINTR) continue;
        if (k <= 0) {
          sent = false;
          return;
        }
        off += static_cast<std::size_t>(k);
      }
    };
    // Frames that fit the socket buffer go out before the read; larger ones
    // need a concurrent writer.
    std::thread writer;
    if (bytes.size() <= kInlineBytes)
      send_all();
    else
      writer = std::thread(send_all);
    std::size_t got = 0;
    while (got < bytes.size()) {
      const ssize_t k = ::recv(recv_fd_, buffer_.data(),
                               std::min(buffer_.size(), bytes.size() - got), 0);
      if (k < 0 && errno == EINTR) continue;
      if (k <= 0) break;
      got += static_cast<std::size_t>(k);
    }
    if (writer.joinable()) writer.join();
    if (!sent || got != bytes.size()) throw std::runtime_error("loopback transfer failed");
  }

 private:
  static constexpr std::size_t kInlineBytes = 16 * 1024;
  int send_fd_ = -1;
  int recv_fd_ = -1;
  std::vector<char> buffer_ = std::vector<char>(64 * 1024);
};

/// One frame's trip across the wire: framing at the sender, the socket,
/// and the receiver's frame decoder.  Returns the payload as received.
std::string over_wire(obs::TraceContext& rec, std::uint32_t parent, int req, Loopback& wire,
                      net::MsgType type, const std::string& payload) {
  std::string frame;
  {
    const obs::ScopedSpan s(&rec, "net.frame", parent, req);
    frame = net::encode_frame(type, payload);
  }
  {
    const obs::ScopedSpan s(&rec, "net.socket", parent, req);
    wire.transfer(frame);
  }
  const obs::ScopedSpan s(&rec, "net.frame", parent, req);
  net::FrameDecoder decoder;
  decoder.feed(frame);
  net::Frame out;
  if (decoder.next(out) != net::FrameDecoder::Status::kFrame)
    throw std::runtime_error("frame round trip failed");
  return std::move(out.payload);
}

/// The run path's result epilogue, call for call: cost, bounds (computed
/// twice, once inside ratio_to_lower_bound), validity.
void finalize(obs::TraceContext& rec, std::uint32_t parent, int req, SolveResult& r,
              const Instance& target) {
  const obs::ScopedSpan fin(&rec, "core.finalize", parent, req);
  {
    const obs::ScopedSpan s(&rec, "core.cost", fin.id(), req);
    r.schedule.ensure_size(target.size());
    r.cost = r.schedule.cost(target);
    r.throughput = r.schedule.throughput();
  }
  {
    const obs::ScopedSpan s(&rec, "core.bounds", fin.id(), req);
    r.bounds = compute_bounds(target);
  }
  {
    const obs::ScopedSpan s(&rec, "core.bounds", fin.id(), req);
    r.ratio_to_lower_bound = target.empty() ? 0 : ratio_to_lower_bound(target, r.cost);
  }
  {
    const obs::ScopedSpan s(&rec, "core.validate", fin.id(), req);
    r.valid = is_valid(target, r.schedule);
  }
}

/// The solver call the served path makes for `spec` on `handle`: the
/// registry's run hook (its event-trace hook for online policies on a
/// trace with retractions), with `auto` split into the cached-view lookup
/// and the dispatch it wraps.
SolveResult solve_layer(obs::TraceContext& rec, std::uint32_t parent, int req,
                        const InstanceHandle& handle, const SolverSpec& spec) {
  const SolverInfo& info = SolverRegistry::instance().at(spec.name);
  if (info.kind == SolverKind::kOnline) {
    const obs::ScopedSpan s(&rec, "online.replay", parent, req);
    return handle->trace().has_cancels() ? info.run_events(handle->trace(), spec)
                                         : info.run(handle->base(), spec);
  }
  if (spec.name != "auto") {
    const obs::ScopedSpan s(&rec, "algo.solve", parent, req);
    return info.run(handle->solve_target(), spec);
  }
  // A fresh handle builds its view here; a warm one finds it cached.
  const InstanceView* view = nullptr;
  {
    const obs::ScopedSpan s(
        &rec, handle->view_builds() == 0 ? "core.view_build" : "core.view_lookup", parent,
        req);
    view = &handle->view();
  }
  const obs::ScopedSpan s(&rec, "algo.dispatch", parent, req);
  DispatchResult d = solve_minbusy_auto(*view, 0, nullptr);
  SolveResult r;
  r.schedule = std::move(d.schedule);
  for (std::size_t i = 0; i < d.names.size(); ++i)
    r.trace.push_back({d.component_jobs[i], d.names[i]});
  return r;
}

/// A client's load of `in`, as the served path makes it: encode, the load
/// frame, decode and Service::load at the server, the handle frame back.
/// An in-process workload loads with Service::load alone.
InstanceHandle replay_load(Workload& w, const Input& in, Loopback& wire,
                           obs::TraceContext& rec, std::uint32_t parent, int req) {
  constexpr std::uint64_t kHandleId = 1;
  if (!w.remote()) {
    const obs::ScopedSpan s(&rec, "service.load", parent, req);
    return w.service().load(in.trace);
  }
  std::string payload;
  {
    const obs::ScopedSpan s(&rec, "net.instance_encode", parent, req);
    payload = in.cancellable ? net::to_payload(in.trace) : net::to_payload(in.trace.base());
  }
  payload = over_wire(rec, parent, req, wire,
                      in.cancellable ? net::MsgType::kLoadTrace : net::MsgType::kLoadInstance,
                      payload);
  InstanceHandle handle;
  if (in.cancellable) {
    EventTrace decoded;
    {
      const obs::ScopedSpan s(&rec, "net.instance_decode", parent, req);
      decoded = net::from_payload<EventTrace>(payload);
    }
    const obs::ScopedSpan s(&rec, "service.load", parent, req);
    handle = w.service().load(std::move(decoded));
  } else {
    Instance decoded;
    {
      const obs::ScopedSpan s(&rec, "net.instance_decode", parent, req);
      decoded = net::from_payload<Instance>(payload);
    }
    const obs::ScopedSpan s(&rec, "service.load", parent, req);
    handle = w.service().load(std::move(decoded));
  }
  net::ibinstream ack;
  ack << kHandleId << static_cast<std::uint64_t>(handle->jobs()) << handle->g();
  over_wire(rec, parent, req, wire, net::MsgType::kHandle, ack.buffer());
  return handle;
}

/// Replays one request of `kind` as the served path's sequence of layer
/// calls, every frame included, under a "request:<label>" root span.  A
/// cold-load request loads its own handle; otherwise `warm` is used.
void replay(Workload& w, std::size_t kind, const InstanceHandle& warm,
            exec::ThreadPool& worker, Loopback& wire, obs::TraceContext& rec, int req) {
  const Kind& k = w.kinds()[kind];
  const obs::ScopedSpan root(&rec, "request:" + k.label, 0, req);
  constexpr std::uint64_t kHandleId = 1;
  InstanceHandle handle =
      w.cold_load() ? replay_load(w, w.inputs()[k.input], wire, rec, root.id(), req) : warm;
  SolveResult result;
  std::string payload;
  if (w.remote()) {
    net::ibinstream request;
    request << kHandleId << k.spec;
    over_wire(rec, root.id(), req, wire, net::MsgType::kSolve, request.buffer());
  }
  on_worker(worker, [&] {
    result = solve_layer(rec, root.id(), req, handle, k.spec);
    finalize(rec, root.id(), req, result, handle->solve_target());
    if (w.remote()) {
      const obs::ScopedSpan s(&rec, "net.result_encode", root.id(), req);
      payload = net::to_payload(result);
    }
  });
  if (w.remote()) {
    payload = over_wire(rec, root.id(), req, wire, net::MsgType::kResult, payload);
    const obs::ScopedSpan s(&rec, "net.result_decode", root.id(), req);
    result = net::from_payload<SolveResult>(payload);
  }
  if (w.cold_load()) {
    over_wire(rec, root.id(), req, wire, net::MsgType::kReleaseHandle,
              net::to_payload(kHandleId));
    {
      const obs::ScopedSpan s(&rec, "service.release", root.id(), req);
      handle.reset();
      result = SolveResult{};
    }
    over_wire(rec, root.id(), req, wire, net::MsgType::kReleased, std::string());
  }
}

/// Total duration of the spans named `name`, per request id in `requests`
/// that has any.
std::map<int, double> durations(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name, const std::set<int>& requests) {
  std::map<int, double> out;
  for (const obs::SpanRecord& s : spans)
    if (s.name == name && requests.count(static_cast<int>(s.value)) != 0)
      out[static_cast<int>(s.value)] += s.duration_ms;
  return out;
}

double median_of(const std::map<int, double>& per_request) {
  std::vector<double> values;
  for (const auto& [req, v] : per_request) values.push_back(v);
  return median(std::move(values));
}

/// Starts a server over `service` for the probes' wire measurements and
/// stops it on every exit path.
class ProbeServer {
 public:
  explicit ProbeServer(Service& service)
      : server_(service), reactor_([this] { server_.run(); }) {}
  ~ProbeServer() {
    server_.stop();
    reactor_.join();
  }
  ProbeServer(const ProbeServer&) = delete;
  ProbeServer& operator=(const ProbeServer&) = delete;

  std::uint16_t port() const noexcept { return server_.port(); }

 private:
  net::Server server_;
  std::thread reactor_;
};

/// Times, `reps` times, the measurements no served request makes, on the
/// workload's first input and first spec: dispatch at nproc and at one
/// thread, online-first-fit replay at one thread, blocking solve against
/// pooled submit, and the same solve over the wire.  Layers in `off_path`
/// (calls the first kind's requests never make, e.g. the codec of an
/// in-process workload) are timed here too.
void probe_layers(Workload& w, int reps, const std::set<std::string>& off_path,
                  obs::TraceContext& rec) {
  const Input& in = w.inputs().front();
  const SolverSpec& spec = w.kinds().front().spec;
  const int nproc = exec::hardware_threads();
  Service& service = w.service();
  auto wanted = [&off_path](const char* name) { return off_path.count(name) != 0; };

  // A warm handle, in process and over the wire.
  const InstanceHandle warm =
      in.cancellable ? service.load(in.trace) : service.load(in.trace.base());
  const SolveResult solved = service.solve(warm, spec);
  const InstanceView& view = warm->view();
  const ProbeServer server(service);
  net::Client client("127.0.0.1", server.port());
  const net::RemoteHandle remote =
      in.cancellable ? client.load_trace(in.trace) : client.load(in.trace.base());
  client.solve(remote, spec);

  for (int r = 0; r < reps; ++r) {
    const int req = kProbeRequestBase + r;
    const obs::ScopedSpan root(&rec, "probe", 0, req);
    if (wanted("net.instance_encode")) {
      std::string payload;
      {
        const obs::ScopedSpan s(&rec, "net.instance_encode", root.id(), req);
        payload = net::to_payload(in.trace);
      }
      const obs::ScopedSpan s(&rec, "net.instance_decode", root.id(), req);
      net::from_payload<EventTrace>(payload);
    }
    if (wanted("net.result_encode")) {
      std::string payload;
      {
        const obs::ScopedSpan s(&rec, "net.result_encode", root.id(), req);
        payload = net::to_payload(solved);
      }
      const obs::ScopedSpan s(&rec, "net.result_decode", root.id(), req);
      net::from_payload<SolveResult>(payload);
    }
    if (wanted("core.view_build")) {
      const obs::ScopedSpan s(&rec, "core.view_build", root.id(), req);
      const InstanceView built(warm->solve_target(), nproc);
    }
    {
      const obs::ScopedSpan s(&rec, "algo.dispatch", root.id(), req);
      solve_minbusy_auto(view, nproc, nullptr);
    }
    {
      const obs::ScopedSpan s(&rec, "algo.dispatch_1t", root.id(), req);
      solve_minbusy_auto(view, 1, nullptr);
    }
    {
      const obs::ScopedSpan s(&rec, "service.solve", root.id(), req);
      service.solve(warm, spec);
    }
    {
      const obs::ScopedSpan s(&rec, "service.submit", root.id(), req);
      service.submit(warm, spec).get();
    }
    {
      const obs::ScopedSpan s(&rec, "net.client_solve", root.id(), req);
      client.solve(remote, spec);
    }
    if (wanted("online.replay")) {
      const obs::ScopedSpan s(&rec, "online.replay", root.id(), req);
      replay_stream(w.online_input(), OnlinePolicy::kFirstFit, PolicyParams{}, nproc);
    }
    const obs::ScopedSpan s(&rec, "online.replay_1t", root.id(), req);
    replay_stream(w.online_input(), OnlinePolicy::kFirstFit, PolicyParams{}, 1);
  }
  client.release(remote);
}

}  // namespace

json::Value traced_pass(Workload& w, bool tiny, obs::TraceContext& rec,
                        std::vector<Metric>& out) {
  const std::size_t kinds = w.kinds().size();
  exec::ThreadPool worker(1);
  Loopback wire;

  // ------------------------------------------------------------ loads ----
  // Warm handles are loaded as the workload's clients load theirs, and an
  // input served with `auto` gets its view built, as its first served
  // request (in the warm-up) builds it.
  std::vector<InstanceHandle> warm;
  if (!w.cold_load())
    for (std::size_t i = 0; i < w.inputs().size(); ++i) {
      const Input& in = w.inputs()[i];
      const int req = kLoadRequestBase + static_cast<int>(i);
      const obs::ScopedSpan root(&rec, "load:" + in.name, 0, req);
      warm.push_back(replay_load(w, in, wire, rec, root.id(), req));
      const bool auto_served = std::any_of(
          w.kinds().begin(), w.kinds().end(),
          [i](const Kind& k) { return k.input == i && k.spec.name == "auto"; });
      if (auto_served)
        on_worker(worker, [&] {
          const obs::ScopedSpan s(&rec, "core.view_build", root.id(), req);
          warm.back()->view();
        });
    }

  // ---------------------------------------------------------- replays ----
  // Each replay follows or precedes an untraced served request of the same
  // kind, so both see the same host capacity.  Every kind at least once,
  // and small kind sets up to 30 pairs.  The order within a pair
  // alternates, so neither side always runs second on warm caches.
  const int replays = tiny ? 1 : std::max(1, 30 / static_cast<int>(kinds));
  std::map<std::size_t, std::vector<double>> untraced_ms;
  std::set<int> first_kind;  // request ids of the first kind's replays and load
  if (!w.cold_load()) first_kind.insert(kLoadRequestBase + static_cast<int>(w.kinds()[0].input));
  int req = 0;
  for (int r = 0; r < replays; ++r)
    for (std::size_t k = 0; k < kinds; ++k) {
      ++req;
      if (k == 0) first_kind.insert(req);
      const InstanceHandle handle = w.cold_load() ? nullptr : warm[w.kinds()[k].input];
      if (req % 2 == 0) replay(w, k, handle, worker, wire, rec, req);
      Outcome served;
      {
        // The served request's span is for the reader; its latency comes
        // from the untraced outcome.
        const obs::ScopedSpan s(&rec, "served:" + w.kinds()[k].label, 0, req);
        served = w.request(0, k);
      }
      if (!served.ok)
        throw std::runtime_error("served request " + w.kinds()[k].label +
                                 " failed its check in the traced pass");
      untraced_ms[k].push_back(served.latency_ms);
      if (req % 2 == 1) replay(w, k, handle, worker, wire, rec, req);
    }

  // ----------------------------------------------------------- probes ----
  std::set<std::string> off_path;
  {
    std::set<std::string> on_path;
    for (const obs::SpanRecord& s : rec.spans())
      if (first_kind.count(static_cast<int>(s.value)) != 0) on_path.insert(s.name);
    for (const char* name : {"net.instance_encode", "net.result_encode", "core.view_build",
                             "online.replay"})
      if (on_path.count(name) == 0) off_path.insert(name);
  }
  const int probes = tiny ? 2 : 3;
  probe_layers(w, probes, off_path, rec);

  // ---------------------------------------------------------- metrics ----
  const std::vector<obs::SpanRecord> spans = rec.spans();
  const std::vector<double> self = self_ms(spans);

  // Coverage: summed over kinds, the median layer self time of the replays
  // over the median latency of the paired served requests; overhead: the
  // mean over kinds of replayed minus served median.
  std::map<std::size_t, std::vector<double>> layer_ms, root_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const obs::SpanRecord& s = spans[i];
    if (s.parent != 0 || s.name.rfind("request:", 0) != 0) continue;
    const std::size_t kind = static_cast<std::size_t>(s.value - 1) % kinds;
    root_ms[kind].push_back(s.duration_ms);
    layer_ms[kind].push_back(s.duration_ms - self[i]);
  }
  double covered = 0, base = 0, overhead = 0;
  for (const auto& [kind, latencies] : untraced_ms) {
    const double p50 = median(latencies);
    covered += median(layer_ms[kind]);
    base += p50;
    overhead += median(root_ms[kind]) - p50;
  }

  // A probe metric is the median over the probe repetitions.  A layer
  // metric is the median over the first kind's replays (and the load of
  // its input) of that call's time per replay; a layer those requests
  // never cross is read from the probes instead.
  std::set<int> probe_ids;
  for (int r = 0; r < probes; ++r) probe_ids.insert(kProbeRequestBase + r);
  auto probe = [&spans, &probe_ids](const std::string& name) {
    return median_of(durations(spans, name, probe_ids));
  };
  auto layer = [&spans, &first_kind, &probe](const std::string& name) {
    const std::map<int, double> on_path = durations(spans, name, first_kind);
    return on_path.empty() ? probe(name) : median_of(on_path);
  };
  const std::map<int, double> client_solve = durations(spans, "net.client_solve", probe_ids);
  const std::map<int, double> submit = durations(spans, "service.submit", probe_ids);
  std::vector<double> wire_overhead;
  for (const auto& [r, ms] : client_solve) wire_overhead.push_back(ms - submit.at(r));
  double bytes = 0;
  for (std::size_t k = 0; k < kinds; ++k) bytes += static_cast<double>(w.wire_bytes(k));

  // Exact work counters: the first input's decomposition and first-fit
  // work, and the online engine's counts summed over the three policies.
  const Input& first = w.inputs().front();
  const InstanceView view(first.target(), 1);
  std::size_t largest = 0;
  FirstFitStats ff_total;
  for (std::size_t i = 0; i < view.component_count(); ++i) {
    largest = std::max(largest, view.component_ids(i).size());
    FirstFitStats ff;
    solve_first_fit(view.component_instance(i), &ff);
    ff_total.profile_checks += ff.profile_checks;
    ff_total.segments += ff.segments;
  }
  EngineStats online;
  for (const OnlinePolicy policy :
       {OnlinePolicy::kFirstFit, OnlinePolicy::kBestFit, OnlinePolicy::kEpochHybrid}) {
    const EngineStats stats = replay_stream(w.online_input(), policy, PolicyParams{}, 1).stats;
    online.machines_opened += stats.machines_opened;
    online.slots_recycled += stats.slots_recycled;
    online.jobs_cancelled += stats.jobs_cancelled;
  }

  const double dispatch = probe("algo.dispatch");
  const double dispatch_1t = probe("algo.dispatch_1t");
  const double solve = probe("service.solve");
  const double submitted = probe("service.submit");
  out.push_back({"net.instance_encode_ms", layer("net.instance_encode"), "ms"});
  out.push_back({"net.instance_decode_ms", layer("net.instance_decode"), "ms"});
  out.push_back({"net.result_encode_ms", layer("net.result_encode"), "ms"});
  out.push_back({"net.result_decode_ms", layer("net.result_decode"), "ms"});
  out.push_back({"net.bytes_per_req", bytes / static_cast<double>(kinds), "bytes"});
  out.push_back({"net.wire_overhead_ms", median(wire_overhead), "ms"});
  out.push_back({"service.load_ms", layer("service.load"), "ms"});
  out.push_back({"service.solve_ms", solve, "ms"});
  out.push_back({"service.submit_ms", submitted, "ms"});
  out.push_back({"service.submit_over_solve", solve > 0 ? submitted / solve : 0, "ratio"});
  out.push_back({"core.view_build_ms", layer("core.view_build"), "ms"});
  out.push_back({"core.components", static_cast<double>(view.component_count()), "count"});
  out.push_back({"core.max_component_share",
                 first.target().empty() ? 0
                                        : static_cast<double>(largest) /
                                              static_cast<double>(first.target().size()),
                 "ratio"});
  out.push_back({"core.cost_ms", layer("core.cost"), "ms"});
  out.push_back({"core.bounds_ms", layer("core.bounds"), "ms"});
  out.push_back({"core.validate_ms", layer("core.validate"), "ms"});
  out.push_back({"core.finalize_ms", layer("core.finalize"), "ms"});
  out.push_back({"algo.dispatch_ms", dispatch, "ms"});
  out.push_back({"algo.dispatch_1t_ms", dispatch_1t, "ms"});
  out.push_back({"algo.dispatch_speedup", dispatch > 0 ? dispatch_1t / dispatch : 0, "x"});
  out.push_back({"algo.ff_profile_checks", static_cast<double>(ff_total.profile_checks), "count"});
  out.push_back({"algo.ff_segments", static_cast<double>(ff_total.segments), "count"});
  out.push_back({"online.replay_ms", layer("online.replay"), "ms"});
  out.push_back({"online.replay_1t_ms", probe("online.replay_1t"), "ms"});
  out.push_back({"online.machines_opened", static_cast<double>(online.machines_opened), "count"});
  out.push_back({"online.slots_recycled", static_cast<double>(online.slots_recycled), "count"});
  out.push_back({"online.jobs_cancelled", static_cast<double>(online.jobs_cancelled), "count"});
  out.push_back({"trace.coverage", base > 0 ? covered / base : 0, "ratio"});
  out.push_back({"trace.overhead_ms",
                 untraced_ms.empty() ? 0 : overhead / static_cast<double>(untraced_ms.size()),
                 "ms"});

  // Cross-check: the program's own span tree of one in-process request.
  if (w.remote()) return json::Value();
  SolverSpec spec = w.kinds().front().spec;
  spec.trace = std::make_shared<obs::TraceContext>();
  w.service().submit(warm[w.kinds().front().input], spec).get();
  return spec.trace->to_json();
}

}  // namespace perfbench
