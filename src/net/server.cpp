#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "obs/metrics.hpp"

namespace busytime::net {

namespace {

namespace metric = obs::metric;

/// Sentinel ids in the poll set (connection ids start at 1).
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = ~std::uint64_t{0};

/// Pending-connection queue length passed to listen().
constexpr int kListenBacklog = 64;

/// Reactor tick, ms.  Every state change also nudges the wake socket, so
/// this only bounds how late an external stop() is noticed if the nudge is
/// ever lost.
constexpr int kPollTimeoutMs = 200;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw NetError("fcntl(O_NONBLOCK): " + std::string(std::strerror(errno)));
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

// ------------------------------------------------------ completion channel

Server::CompletionChannel::~CompletionChannel() {
  if (wake_write_fd >= 0) ::close(wake_write_fd);
}

void Server::CompletionChannel::push(Completion completion) {
  {
    std::lock_guard<std::mutex> lock(mu);
    items.push_back(std::move(completion));
  }
  notify();
}

void Server::CompletionChannel::notify() {
  // Best-effort: the reactor also ticks on a timeout.  MSG_NOSIGNAL keeps a
  // teardown race (reactor's read end already closed) from raising SIGPIPE.
  const char byte = 1;
  (void)::send(wake_write_fd, &byte, 1, MSG_NOSIGNAL);
}

// ------------------------------------------------------------------- setup

Server::Server(Service& service, ServerConfig config)
    : service_(service), config_(std::move(config)) {
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw NetError(errno_string("socketpair"));
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
  wake_read_fd_ = fds[0];
  channel_ = std::make_shared<CompletionChannel>();
  channel_->wake_write_fd = fds[1];

  open_listener();
}

Server::~Server() {
  for (auto& [id, conn] : conns_)
    if (conn->fd >= 0) ::close(conn->fd);
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  // channel_ closes the wake write end when the last callback releases it.
}

void Server::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw NetError(errno_string("socket"));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1)
    throw NetError("bad listen address '" + config_.host + "'");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw NetError(errno_string("bind"));
  if (::listen(listen_fd_, kListenBacklog) != 0)
    throw NetError(errno_string("listen"));
  set_nonblocking(listen_fd_);

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw NetError(errno_string("getsockname"));
  port_ = ntohs(addr.sin_port);
}

// -------------------------------------------------------------------- loop

void Server::run() {
  if (running_) throw NetError("Server::run is not reentrant");
  running_ = true;
  draining_ = false;
  while (true) {
    drain_completions();
    if (stop_requested_.exchange(false, std::memory_order_acq_rel))
      begin_drain();
    if (idle()) break;
    poll_once();
  }
  running_ = false;
}

void Server::stop() {
  stop_requested_.store(true, std::memory_order_release);
  channel_->notify();
}

bool Server::idle() const {
  return draining_ && conns_.empty() && inflight_total_ == 0;
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Existing connections get their pending replies, then close.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    it->second->closing = true;
    flush_replies(*it->second);  // may erase the connection
  }
}

void Server::poll_once() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;
  fds.push_back({wake_read_fd_, POLLIN, 0});
  ids.push_back(kWakeId);
  if (accept_paused_at_ &&
      std::chrono::steady_clock::now() - *accept_paused_at_ >=
          std::chrono::milliseconds(kPollTimeoutMs))
    accept_paused_at_.reset();
  if (listen_fd_ >= 0 && !accept_paused_at_) {
    fds.push_back({listen_fd_, POLLIN, 0});
    ids.push_back(kListenId);
  }
  for (const auto& [id, conn] : conns_) {
    short events = 0;
    if (!conn->read_closed && !conn->decoder.poisoned()) events |= POLLIN;
    if (conn->out_pos < conn->out.size()) events |= POLLOUT;
    fds.push_back({conn->fd, events, 0});
    ids.push_back(id);
  }
  const int n = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
  if (n < 0) {
    if (errno == EINTR) return;
    throw NetError(errno_string("poll"));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    const std::uint64_t id = ids[i];
    if (id == kWakeId) {
      char buf[256];
      while (::recv(wake_read_fd_, buf, sizeof(buf), 0) > 0) {
      }
      continue;
    }
    if (id == kListenId) {
      accept_ready();
      continue;
    }
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (fds[i].revents & POLLOUT) handle_writable(*it->second);
    it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (fds[i].revents & (POLLIN | POLLERR | POLLHUP))
      handle_readable(*it->second);
  }
}

// ------------------------------------------------------------- connections

void Server::accept_ready() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // Out of descriptors or memory: the connection stays queued and the
      // listener readable, so stop polling it for a while (poll_once).
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS || errno == ENOMEM)
        accept_paused_at_ = std::chrono::steady_clock::now();
      return;  // accept failures are not fatal to the server
    }
    set_nonblocking(fd);
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    service_.metrics().add<metric::kNetConnections>();
    open_connections_.fetch_add(1, std::memory_order_relaxed);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void Server::close_connection(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  // The handle table dies with the connection: this is the release-on-
  // disconnect contract.  Any still-running solve keeps its own ref on the
  // InstanceHandle; its completion is dropped on arrival.
  if (it->second->fd >= 0) ::close(it->second->fd);
  conns_.erase(it);
  open_connections_.fetch_sub(1, std::memory_order_relaxed);
  accept_paused_at_.reset();  // a descriptor is free again
}

void Server::handle_readable(Connection& conn) {
  // dispatch_frame can close this connection (kShutdown drains everyone),
  // so liveness re-checks below must use the saved id, not conn.id.
  const std::uint64_t conn_id = conn.id;
  char buf[64 * 1024];
  bool eof = false;
  while (!conn.read_closed) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      service_.metrics().add<metric::kNetBytesIn>(
          static_cast<std::uint64_t>(n));
      conn.decoder.feed(buf, static_cast<std::size_t>(n));
      // Decode after every read: once a large payload's header is read,
      // the decoder appends the reads that follow straight to its buffer.
      if (!dispatch_frames(conn)) return;  // closed by dispatch
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    // Hard error (ECONNRESET, ...): the peer is gone, nothing to flush.
    close_connection(conn_id);
    return;
  }

  if (eof) {
    if (conn.decoder.mid_frame()) {
      // Mid-frame disconnect: the peer half-closed with an incomplete
      // frame buffered.  Count it and answer on the (possibly still open)
      // write side before closing.
      service_.metrics().add<metric::kNetDecodeErrors>();
      const std::uint64_t seq = reserve_reply(conn);
      fill_reply(conn, seq,
                 encode_error(WireErrorCode::kTruncatedFrame,
                              "connection ended mid-frame"));
    }
    conn.read_closed = true;
    conn.closing = true;
  }
  flush_replies(conn);
}

bool Server::dispatch_frames(Connection& conn) {
  const std::uint64_t conn_id = conn.id;
  Frame frame;
  while (true) {
    const FrameDecoder::Status status = conn.decoder.next(frame);
    if (status == FrameDecoder::Status::kNeedMore) return true;
    if (status == FrameDecoder::Status::kError) {
      // Desynced stream (bad magic / oversized length): report once, then
      // close after the error frame flushes.  Nothing after this point in
      // the byte stream can be trusted, so reading stops here.
      service_.metrics().add<metric::kNetDecodeErrors>();
      const std::uint64_t seq = reserve_reply(conn);
      fill_reply(conn, seq,
                 encode_error(conn.decoder.error_code(),
                              conn.decoder.error_message()));
      conn.closing = true;
      conn.read_closed = true;
      return true;
    }
    service_.metrics().add<metric::kNetFramesIn>();
    dispatch_frame(conn, std::move(frame));
    if (conns_.find(conn_id) == conns_.end()) return false;
  }
}

void Server::handle_writable(Connection& conn) { flush_replies(conn); }

// ---------------------------------------------------------------- dispatch

void Server::dispatch_frame(Connection& conn, Frame frame) {
  const std::uint64_t seq = reserve_reply(conn);

  if (draining_ && frame.type != MsgType::kShutdown) {
    reply_error(conn, seq, WireErrorCode::kShuttingDown,
                "server is draining");
    return;
  }

  switch (frame.type) {
    case MsgType::kPing:
      fill_reply(conn, seq, encode_frame(MsgType::kPong));
      return;

    case MsgType::kLoadInstance:
      dispatch_load<Instance>(conn, seq, frame.payload);
      return;

    case MsgType::kLoadTrace:
      dispatch_load<EventTrace>(conn, seq, frame.payload);
      return;

    case MsgType::kSolve:
      dispatch_solve(conn, frame.payload);
      return;

    case MsgType::kListSolvers: {
      std::vector<WireSolverInfo> infos;
      for (const SolverInfo* info : SolverRegistry::instance().all()) {
        WireSolverInfo row;
        row.name = info->name;
        row.kind = to_string(info->kind);
        row.optimality = to_string(info->optimality);
        row.ratio = info->ratio;
        row.needs_budget = info->needs_budget;
        row.description = info->description;
        infos.push_back(std::move(row));
      }
      fill_reply(conn, seq, frame_of(MsgType::kSolverList, infos));
      return;
    }

    case MsgType::kReleaseHandle: {
      try {
        const std::uint64_t id = from_payload<std::uint64_t>(frame.payload);
        if (conn.handles.erase(id) == 0) {
          reply_error(conn, seq, WireErrorCode::kBadHandle,
                      "handle " + std::to_string(id) +
                          " is not loaded on this connection");
        } else {
          fill_reply(conn, seq, encode_frame(MsgType::kReleased));
        }
      } catch (const WireError& e) {
        service_.metrics().add<metric::kNetDecodeErrors>();
        reply_error(conn, seq, WireErrorCode::kBadPayload, e.what());
      }
      return;
    }

    case MsgType::kShutdown:
      fill_reply(conn, seq, encode_frame(MsgType::kShuttingDown));
      begin_drain();  // marks every connection (this one included) closing
      return;

    default:
      // Unknown or response-typed frame from the peer.  The framing is
      // still intact, so the connection survives.
      service_.metrics().add<metric::kNetDecodeErrors>();
      reply_error(conn, seq, WireErrorCode::kUnknownMessage,
                  "unexpected frame type " + to_string(frame.type));
      return;
  }
}

template <typename Workload>
void Server::dispatch_load(Connection& conn, std::uint64_t seq,
                           const std::string& payload) {
  try {
    Workload workload = from_payload<Workload>(payload);
    const std::uint64_t jobs = workload.size();
    const std::int32_t g = workload.g();
    const std::uint64_t id = conn.next_handle++;
    conn.handles.emplace(id, service_.load(std::move(workload)));
    fill_reply(conn, seq, frame_of(MsgType::kHandle, id, jobs, g));
  } catch (const std::exception& e) {
    service_.metrics().add<metric::kNetDecodeErrors>();
    reply_error(conn, seq, WireErrorCode::kBadPayload, e.what());
  }
}

void Server::dispatch_solve(Connection& conn, const std::string& payload) {
  // reserve_reply already ran in dispatch_frame; the slot to fill is the
  // newest one.
  const std::uint64_t seq = conn.replies_popped + conn.replies.size() - 1;

  std::uint64_t handle_id = 0;
  SolverSpec spec;
  try {
    obinstream m(payload);
    m >> handle_id >> spec;
    if (!m.done()) throw WireError("solve payload carries trailing bytes");
  } catch (const WireError& e) {
    service_.metrics().add<metric::kNetDecodeErrors>();
    reply_error(conn, seq, WireErrorCode::kBadPayload, e.what());
    return;
  }

  const auto it = conn.handles.find(handle_id);
  if (it == conn.handles.end()) {
    reply_error(conn, seq, WireErrorCode::kBadHandle,
                "handle " + std::to_string(handle_id) +
                    " is not loaded on this connection");
    return;
  }

  ++conn.inflight;
  ++inflight_total_;
  service_.metrics().set<metric::kNetInflight>(
      static_cast<std::int64_t>(inflight_total_));
  // The worker thread encodes the response, so the reactor only moves
  // ready-made bytes.
  service_.submit(
      it->second, std::move(spec),
      [channel = channel_, conn_id = conn.id, seq](SolveResult result,
                                                   std::exception_ptr error) {
        std::string bytes;
        if (error != nullptr) {
          std::string what = "solve failed";
          try {
            std::rethrow_exception(error);
          } catch (const std::exception& e) {
            what = e.what();
          } catch (...) {
          }
          bytes = encode_error(WireErrorCode::kSolveFailed, what);
        } else {
          bytes = frame_of(MsgType::kResult, result);
        }
        channel->push({conn_id, seq, std::move(bytes)});
      });
}

void Server::drain_completions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(channel_->mu);
    batch.swap(channel_->items);
  }
  for (Completion& completion : batch) {
    --inflight_total_;
    service_.metrics().set<metric::kNetInflight>(
        static_cast<std::int64_t>(inflight_total_));
    const auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // disconnected mid-solve: drop
    Connection& conn = *it->second;
    --conn.inflight;
    fill_reply(conn, completion.reply_seq, std::move(completion.bytes));
    flush_replies(conn);
  }
}

// ----------------------------------------------------------------- replies

std::uint64_t Server::reserve_reply(Connection& conn) {
  conn.replies.emplace_back();
  return conn.replies_popped + conn.replies.size() - 1;
}

void Server::fill_reply(Connection& conn, std::uint64_t seq,
                        std::string bytes) {
  const std::uint64_t index = seq - conn.replies_popped;
  if (index >= conn.replies.size()) return;  // slot already abandoned
  PendingReply& slot = conn.replies[index];
  slot.ready = true;
  slot.bytes = std::move(bytes);
}

void Server::reply_error(Connection& conn, std::uint64_t seq,
                         WireErrorCode code, const std::string& message) {
  fill_reply(conn, seq, encode_error(code, message));
}

void Server::flush_replies(Connection& conn) {
  while (!conn.replies.empty() && conn.replies.front().ready) {
    std::string& bytes = conn.replies.front().bytes;
    if (conn.out.empty()) {
      conn.out = std::move(bytes);  // a lone reply: no copy
    } else {
      conn.out += bytes;
    }
    service_.metrics().add<metric::kNetFramesOut>();
    conn.replies.pop_front();
    ++conn.replies_popped;
  }

  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      service_.metrics().add<metric::kNetBytesOut>(
          static_cast<std::uint64_t>(n));
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return;  // writability event will resume the flush
    if (n < 0 && errno == EINTR) continue;
    close_connection(conn.id);  // peer gone
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;

  if (conn.closing && conn.replies.empty() && conn.inflight == 0)
    close_connection(conn.id);
}

}  // namespace busytime::net
