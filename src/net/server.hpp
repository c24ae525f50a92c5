// The serving reactor: a single-threaded poll() TCP front over a
// busytime::Service.
//
// One thread owns every socket.  Each tick builds the poll set afresh from
// the connection table and waits in one poll() call; no interest list is
// kept in the kernel.  The loop accepts connections, feeds bytes into a
// per-connection FrameDecoder, and dispatches complete request frames.
// Cheap requests (ping, load, list, release) are answered inline;
// solves go through Service::submit(handle, spec, callback) so they run on
// the Service's worker pool while the reactor keeps reading — the callback
// pushes the encoded response into a completion queue and wakes the loop
// through a self-pipe.
//
// When accept() runs out of descriptors or memory, the pending connection
// stays queued and the listener stays readable, so polling it would spin
// the loop: it leaves the poll set until a connection closes or one tick
// passes, and the queued connections wait in the backlog until then.
//
// Per-connection state:
//  * a handle table mapping wire handle ids to InstanceHandles — handles
//    are connection-scoped and released on disconnect (the ref-count keeps
//    state alive for any still-running solve);
//  * an ordered reply queue: every request frame reserves a reply slot when
//    it is decoded, and the writer flushes only the ready prefix, so
//    responses always arrive in request order even when a later ping
//    completes before an earlier solve;
//  * a write buffer drained on writability — the reactor never blocks on a
//    slow reader.
//
// Request deadlines need no reactor support: SolverOptions::deadline_ms
// travels inside the SolverSpec payload and the Service resolves it at
// submission, so queue wait on the worker pool counts against it exactly as
// for in-process submits.
//
// Every event counts into the owning Service's metrics registry under
// net.* (docs/OBSERVABILITY.md): connections, frames/bytes in and out,
// decode errors, and an inflight-solves gauge.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "service/service.hpp"

namespace busytime::net {

struct ServerConfig {
  /// Address to bind; the loopback default keeps the server private to the
  /// machine unless explicitly exposed.
  std::string host = "127.0.0.1";
  /// Port to bind; 0 asks the kernel for an ephemeral port (read the
  /// resolved one back via port()).
  std::uint16_t port = 0;
};

/// A bound, listening serving endpoint.  Construct (binds + listens, throws
/// NetError on failure), then run() the reactor loop — typically on a
/// dedicated thread.  stop() is the thread-safe external shutdown request;
/// a kShutdown frame is the in-band one.  Either way run() refuses further
/// work, drains in-flight solves, flushes pending replies, and returns.
class Server {
 public:
  Server(Service& service, ServerConfig config = {});
  /// Joins nothing (run() is the caller's frame); closes every socket.
  /// Must not be destroyed while run() executes on another thread.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The resolved listening port (the ephemeral pick when config.port == 0).
  std::uint16_t port() const noexcept { return port_; }
  const std::string& host() const noexcept { return config_.host; }

  /// Runs the reactor until shutdown; reentrant calls are an error.
  void run();

  /// Asks a running loop to shut down (thread-safe, idempotent).
  void stop();

  /// Connections currently open (reactor-thread accounting, approximate
  /// from other threads).
  std::size_t open_connections() const noexcept {
    return open_connections_.load(std::memory_order_relaxed);
  }

 private:
  struct PendingReply {
    bool ready = false;
    std::string bytes;  ///< a complete encoded frame once ready
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;  ///< reactor-assigned, never reused
    FrameDecoder decoder;
    std::deque<PendingReply> replies;
    std::uint64_t replies_popped = 0;  ///< slots already flushed (seq base)
    std::string out;                   ///< bytes accepted for write
    std::size_t out_pos = 0;
    std::map<std::uint64_t, InstanceHandle> handles;
    std::uint64_t next_handle = 1;
    std::size_t inflight = 0;  ///< solves submitted, reply slot not yet filled
    bool closing = false;      ///< close once replies are flushed
    bool read_closed = false;  ///< peer sent EOF (stop reading, may still write)
  };

  struct Completion {
    std::uint64_t conn_id = 0;
    std::uint64_t reply_seq = 0;
    std::string bytes;
  };

  /// The cross-thread half of the reactor: pool workers push encoded
  /// response frames here and nudge the wake socket.  Held by shared_ptr so
  /// a completion callback that outlives the Server (a solve finishing
  /// during teardown) still has a live queue and a live write fd.
  struct CompletionChannel {
    std::mutex mu;
    std::vector<Completion> items;
    int wake_write_fd = -1;  ///< owned; closed by ~CompletionChannel
    ~CompletionChannel();
    void push(Completion completion);
    void notify();
  };

  void open_listener();
  void accept_ready();
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  /// Dispatches every frame the decoder holds; false when a dispatch
  /// closed the connection.
  bool dispatch_frames(Connection& conn);
  void dispatch_frame(Connection& conn, Frame frame);
  /// Decodes a Workload (Instance or EventTrace) payload, loads it into the
  /// Service and answers with the new connection-scoped handle.
  template <typename Workload>
  void dispatch_load(Connection& conn, std::uint64_t seq,
                     const std::string& payload);
  void dispatch_solve(Connection& conn, const std::string& payload);

  /// Reserves the next in-order reply slot; returns its sequence number.
  std::uint64_t reserve_reply(Connection& conn);
  void fill_reply(Connection& conn, std::uint64_t seq, std::string bytes);
  /// Moves the ready reply prefix into the write buffer and writes what the
  /// socket will take.
  void flush_replies(Connection& conn);
  void reply_error(Connection& conn, std::uint64_t seq, WireErrorCode code,
                   const std::string& message);

  void drain_completions();
  void close_connection(std::uint64_t conn_id);
  void begin_drain();
  void poll_once();
  bool idle() const;

  Service& service_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  /// When accept() last ran out of descriptors or memory; set while the
  /// listener is out of the poll set.
  std::optional<std::chrono::steady_clock::time_point> accept_paused_at_;

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::atomic<std::size_t> open_connections_{0};
  std::size_t inflight_total_ = 0;  ///< reactor-thread view of all inflight solves

  std::shared_ptr<CompletionChannel> channel_;

  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  bool running_ = false;
};

}  // namespace busytime::net
