// Blocking client for the busytime-wire-v1 serving protocol.
//
// One Client owns one TCP connection and speaks strict request/response:
// every call sends one frame and blocks until the matching response frame
// arrives (responses are in request order by the server's contract).  A
// kError response surfaces as a thrown RemoteError carrying the typed
// WireErrorCode; socket failures surface as NetError.
//
// Handles returned by load()/load_trace() are scoped to this connection —
// the server releases them on disconnect — so a warm-handle workflow is:
// connect, load once, solve many, close.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/instance.hpp"
#include "net/protocol.hpp"
#include "online/event.hpp"

namespace busytime::net {

/// A connection-scoped instance handle as acknowledged by the server.
struct RemoteHandle {
  std::uint64_t id = 0;
  std::uint64_t jobs = 0;
  std::int32_t g = 1;
};

/// Splits "host:port" (host defaulting to 127.0.0.1 for a bare ":port" or
/// "port").  Throws NetError on an unparseable port.
std::pair<std::string, std::uint16_t> split_host_port(const std::string& spec);

class Client {
 public:
  /// Connects (blocking) and enables TCP_NODELAY; throws NetError.
  Client(const std::string& host, std::uint16_t port);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void ping();
  RemoteHandle load(const Instance& inst);
  RemoteHandle load_trace(const EventTrace& trace);
  SolveResult solve(const RemoteHandle& handle, const SolverSpec& spec);
  std::vector<WireSolverInfo> list_solvers();
  void release(const RemoteHandle& handle);
  /// Asks the server to drain and exit its loop; the connection is closed
  /// by the server after the acknowledgment.
  void shutdown_server();

  const std::string& host() const noexcept { return host_; }
  std::uint16_t port() const noexcept { return port_; }

 private:
  /// Sends one `type` frame carrying `body...` (frame_of), blocks for the
  /// response, unwraps kError into a thrown RemoteError, and checks that
  /// the response is an `expect` frame.
  template <typename... Body>
  Frame request(MsgType type, MsgType expect, const Body&... body) {
    send_all(frame_of(type, body...));
    return read_response(type, expect);
  }
  Frame read_response(MsgType type, MsgType expect);
  /// Reads back the handle a load response carries.
  static RemoteHandle handle_of(const Frame& response);
  void send_all(const std::string& bytes);
  Frame read_frame();

  std::string host_;
  std::uint16_t port_ = 0;
  int fd_ = -1;
  FrameDecoder decoder_;
};

}  // namespace busytime::net
