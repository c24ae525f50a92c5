#include "net/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace busytime::net {

namespace {
std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}
}  // namespace

std::pair<std::string, std::uint16_t> split_host_port(const std::string& spec) {
  std::string host = "127.0.0.1";
  std::string port_text = spec;
  const std::size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) host = spec.substr(0, colon);
    port_text = spec.substr(colon + 1);
  }
  char* end = nullptr;
  const long port = std::strtol(port_text.c_str(), &end, 10);
  if (port_text.empty() || end == nullptr || *end != '\0' || port < 1 ||
      port > 65535)
    throw NetError("bad host:port '" + spec + "'");
  return {host, static_cast<std::uint16_t>(port)};
}

Client::Client(const std::string& host, std::uint16_t port)
    : host_(host), port_(port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res);
  if (rc != 0)
    throw NetError("resolve '" + host + "': " + ::gai_strerror(rc));

  int last_errno = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd_ < 0) {
      last_errno = errno;
      continue;
    }
    if (::connect(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_errno = errno;
    ::close(fd_);
    fd_ = -1;
  }
  ::freeaddrinfo(res);
  if (fd_ < 0) {
    errno = last_errno;
    throw NetError(errno_string(("connect " + host + ":" + port_text).c_str()));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send_all(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw NetError(errno_string("send"));
  }
}

Frame Client::read_frame() {
  Frame frame;
  while (true) {
    switch (decoder_.next(frame)) {
      case FrameDecoder::Status::kFrame:
        return frame;
      case FrameDecoder::Status::kError:
        throw NetError("malformed response stream [" +
                       to_string(decoder_.error_code()) +
                       "]: " + decoder_.error_message());
      case FrameDecoder::Status::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0)
      throw NetError(decoder_.mid_frame()
                         ? "server closed the connection mid-frame"
                         : "server closed the connection");
    if (errno == EINTR) continue;
    throw NetError(errno_string("recv"));
  }
}

Frame Client::read_response(MsgType type, MsgType expect) {
  Frame response = read_frame();
  if (response.type == MsgType::kError) throw decode_error(response.payload);
  if (response.type != expect)
    throw NetError("expected a " + to_string(expect) + " response to " +
                   to_string(type) + ", got " + to_string(response.type));
  return response;
}

void Client::ping() { request(MsgType::kPing, MsgType::kPong); }

RemoteHandle Client::load(const Instance& inst) {
  return handle_of(request(MsgType::kLoadInstance, MsgType::kHandle, inst));
}

RemoteHandle Client::load_trace(const EventTrace& trace) {
  return handle_of(request(MsgType::kLoadTrace, MsgType::kHandle, trace));
}

RemoteHandle Client::handle_of(const Frame& response) {
  obinstream m(response.payload);
  RemoteHandle handle;
  m >> handle.id >> handle.jobs >> handle.g;
  return handle;
}

SolveResult Client::solve(const RemoteHandle& handle, const SolverSpec& spec) {
  const Frame response =
      request(MsgType::kSolve, MsgType::kResult, handle.id, spec);
  return from_payload<SolveResult>(response.payload);
}

std::vector<WireSolverInfo> Client::list_solvers() {
  const Frame response = request(MsgType::kListSolvers, MsgType::kSolverList);
  return from_payload<std::vector<WireSolverInfo>>(response.payload);
}

void Client::release(const RemoteHandle& handle) {
  request(MsgType::kReleaseHandle, MsgType::kReleased, handle.id);
}

void Client::shutdown_server() {
  request(MsgType::kShutdown, MsgType::kShuttingDown);
}

}  // namespace busytime::net
