// The serving reactor under hostile and well-behaved clients: malformed
// frames (truncated, oversized, bad magic, unknown type, bad payload,
// mid-frame disconnect) must produce typed error frames or clean closes —
// never UB, never a crash — and each must increment net.decode_errors;
// handles must be connection-scoped and released on disconnect; deadlines
// must travel inside the spec; remote results must be bit-identical to
// in-process Service::solve.  The NetServer suite is a ThreadSanitizer CI
// target (the reactor thread, pool workers, and test threads interleave).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "net/binstream.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/service.hpp"
#include "workload/generators.hpp"
#include "workload/trace.hpp"

namespace busytime {
namespace {

using namespace std::chrono_literals;

Instance small_instance(std::uint64_t seed = 3) {
  GenParams p;
  p.n = 40;
  p.g = 3;
  p.seed = seed;
  return gen_general(p);
}

/// A Service + Server pair with the reactor running on its own thread.
struct ServerFixture {
  Service service;
  net::Server server;
  std::thread reactor;

  ServerFixture() : service(), server(service) {
    reactor = std::thread([this] { server.run(); });
  }

  ~ServerFixture() {
    server.stop();
    reactor.join();
  }

  std::uint64_t counter(const char* name) const {
    return service.metrics().snapshot().counter_value(name);
  }

  /// Counters advance on the reactor thread; spin briefly for `name` to
  /// reach `at_least` instead of sleeping a fixed interval.
  bool wait_counter(const char* name, std::uint64_t at_least,
                    std::chrono::milliseconds budget = 2000ms) const {
    const auto give_up = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < give_up) {
      if (counter(name) >= at_least) return true;
      std::this_thread::sleep_for(1ms);
    }
    return counter(name) >= at_least;
  }
};

/// Raw blocking TCP connection for speaking malformed bytes at the server.
struct RawConn {
  int fd = -1;

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
  }

  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_bytes(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocks until one frame arrives (fails the test on close/garbage).
  net::Frame read_frame() {
    net::Frame frame;
    while (true) {
      switch (decoder.next(frame)) {
        case net::FrameDecoder::Status::kFrame:
          return frame;
        case net::FrameDecoder::Status::kError:
          ADD_FAILURE() << "response stream poisoned: "
                        << decoder.error_message();
          return frame;
        case net::FrameDecoder::Status::kNeedMore:
          break;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while waiting for a frame";
        return frame;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }

  /// True when the server closes the connection (EOF after any buffered
  /// bytes drain).
  bool reaches_eof() {
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return false;
      decoder.feed(buf, static_cast<std::size_t>(n));
    }
  }

  net::FrameDecoder decoder;
};

net::RemoteError expect_error_reply(RawConn& conn, net::WireErrorCode code) {
  const net::Frame frame = conn.read_frame();
  EXPECT_EQ(frame.type, net::MsgType::kError);
  const net::RemoteError error = net::decode_error(frame.payload);
  EXPECT_EQ(error.code(), code) << error.what();
  return error;
}

// ------------------------------------------------------ decoder unit tests

TEST(NetServer, FrameDecoderReassemblesByteAtATime) {
  const std::string bytes =
      net::encode_frame(net::MsgType::kPing) +
      net::encode_frame(net::MsgType::kSolve, std::string("payload"));
  net::FrameDecoder decoder;
  std::vector<net::Frame> frames;
  net::Frame frame;
  for (const char byte : bytes) {
    decoder.feed(&byte, 1);
    while (decoder.next(frame) == net::FrameDecoder::Status::kFrame)
      frames.push_back(frame);
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, net::MsgType::kPing);
  EXPECT_EQ(frames[0].payload, "");
  EXPECT_EQ(frames[1].type, net::MsgType::kSolve);
  EXPECT_EQ(frames[1].payload, "payload");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(NetServer, FrameDecoderFlagsMidFrameAndPoisonsOnBadMagic) {
  net::FrameDecoder decoder;
  net::Frame frame;
  const std::string whole = net::encode_frame(net::MsgType::kPing, "abc");
  decoder.feed(whole.substr(0, whole.size() - 1));
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());

  net::FrameDecoder bad;
  bad.feed(std::string("XXXXXXXXXXXX"));
  EXPECT_EQ(bad.next(frame), net::FrameDecoder::Status::kError);
  EXPECT_EQ(bad.error_code(), net::WireErrorCode::kBadMagic);
  // Poisoned for good: more bytes never resurrect the stream.
  bad.feed(net::encode_frame(net::MsgType::kPing));
  EXPECT_EQ(bad.next(frame), net::FrameDecoder::Status::kError);
}

TEST(NetServer, FrameDecoderRejectsOversizedDeclaredLength) {
  net::ibinstream header;
  header << net::kMagic << static_cast<std::uint8_t>(net::MsgType::kPing)
         << std::uint32_t{1 << 20};
  net::FrameDecoder decoder(/*max_payload=*/1024);
  decoder.feed(header.buffer());
  net::Frame frame;
  EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error_code(), net::WireErrorCode::kOversizedFrame);
}

/// Feeds the frames `big` then `next` to `decoder` in slices of `stride`
/// bytes of `big`, the last slice of `big` carrying all of `next` with it,
/// polling after every slice.  Returns the frames handed out.  Every poll
/// before the last slice must leave the decoder mid-frame.
std::vector<net::Frame> feed_with_next_in_last_slice(net::FrameDecoder& decoder,
                                                     const std::string& big,
                                                     const std::string& next,
                                                     std::size_t stride) {
  std::vector<net::Frame> frames;
  net::Frame frame;
  for (std::size_t off = 0; off < big.size(); off += stride) {
    const bool last = off + stride >= big.size();
    const std::string slice = last ? big.substr(off) + next : big.substr(off, stride);
    decoder.feed(slice);
    while (decoder.next(frame) == net::FrameDecoder::Status::kFrame)
      frames.push_back(std::move(frame));
    if (!last) {
      EXPECT_TRUE(decoder.mid_frame()) << "offset " << off;
    }
  }
  return frames;
}

TEST(NetServer, FrameDecoderHandsOverALargePayloadWholeAtEveryStride) {
  // A payload of over 1 MiB in a pattern no shifted copy matches, then a
  // ping whose header shares a slice with the payload's last byte.
  std::string payload((std::size_t{1} << 20) + 4099, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<char>((i * 131) ^ (i >> 9));
  const std::string big = net::encode_frame(net::MsgType::kLoadInstance, payload);
  const std::string ping = net::encode_frame(net::MsgType::kPing);
  for (const std::size_t stride :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096}, std::size_t{65536}, big.size()}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    net::FrameDecoder decoder;
    const std::vector<net::Frame> frames =
        feed_with_next_in_last_slice(decoder, big, ping, stride);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, net::MsgType::kLoadInstance);
    EXPECT_TRUE(frames[0].payload == payload) << "payload differs";
    EXPECT_EQ(frames[1].type, net::MsgType::kPing);
    EXPECT_EQ(frames[1].payload, "");
    EXPECT_FALSE(decoder.mid_frame());
    EXPECT_FALSE(decoder.poisoned());
  }
}

TEST(NetServer, FrameDecoderPoisonsOnTheNinthHeaderByte) {
  net::ibinstream bad_magic;
  bad_magic << std::uint32_t{0x12345678} << static_cast<std::uint8_t>(net::MsgType::kPing)
            << std::uint32_t{0};
  net::ibinstream over_cap;
  over_cap << net::kMagic << static_cast<std::uint8_t>(net::MsgType::kLoadInstance)
           << static_cast<std::uint32_t>(net::kMaxPayloadBytes + 1);
  const std::string payload(70000, 'x');
  const std::string big = net::encode_frame(net::MsgType::kLoadInstance, payload);
  for (const auto& [header, code] :
       {std::pair<std::string, net::WireErrorCode>{bad_magic.buffer(),
                                                   net::WireErrorCode::kBadMagic},
        {over_cap.buffer(), net::WireErrorCode::kOversizedFrame}}) {
    ASSERT_EQ(header.size(), net::kFrameHeaderBytes);
    // On a fresh decoder, and right behind a payload that spanned reads.
    for (const bool after_large_frame : {false, true}) {
      SCOPED_TRACE(std::string(after_large_frame ? "after" : "without") +
                   " a large frame; " + net::to_string(code));
      net::FrameDecoder decoder;
      net::Frame frame;
      if (after_large_frame) {
        for (std::size_t off = 0; off < big.size(); off += 4096) {
          decoder.feed(big.substr(off, 4096));
          if (decoder.next(frame) == net::FrameDecoder::Status::kFrame) break;
        }
        ASSERT_EQ(frame.payload, payload);
      }
      for (std::size_t k = 0; k + 1 < header.size(); ++k) {
        decoder.feed(&header[k], 1);
        EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kNeedMore) << k;
      }
      decoder.feed(&header.back(), 1);
      EXPECT_EQ(decoder.next(frame), net::FrameDecoder::Status::kError);
      EXPECT_TRUE(decoder.poisoned());
      EXPECT_EQ(decoder.error_code(), code);
    }
  }
}

// ----------------------------------------------------- live server, happy

TEST(NetServer, PingLoadSolveMatchesInProcessBitExactly) {
  ServerFixture fx;
  net::Client client("127.0.0.1", fx.server.port());
  client.ping();

  const Instance inst = small_instance();
  const net::RemoteHandle remote = client.load(inst);
  EXPECT_EQ(remote.jobs, inst.size());
  EXPECT_EQ(remote.g, inst.g());

  for (const char* solver : {"auto", "first_fit", "local_search"}) {
    SolverSpec spec;
    spec.name = solver;
    const SolveResult over_wire = client.solve(remote, spec);

    Service local;
    const SolveResult in_process = local.solve(local.load(inst), spec);
    EXPECT_EQ(over_wire.solver, in_process.solver);
    EXPECT_EQ(over_wire.status, in_process.status);
    EXPECT_EQ(over_wire.schedule.assignment(), in_process.schedule.assignment());
    EXPECT_EQ(over_wire.cost, in_process.cost);
    EXPECT_EQ(over_wire.stats.machines_opened, in_process.stats.machines_opened);
    EXPECT_TRUE(over_wire.valid);
  }

  EXPECT_EQ(client.list_solvers().size(), SolverRegistry::instance().size());
  client.release(remote);
  EXPECT_EQ(fx.counter(obs::metric::kNetDecodeErrors), 0u);
}

/// Wire encoding with wall_ms zeroed: equal strings == bit-identical
/// results in every field the protocol carries.
std::string fingerprint(SolveResult result) {
  result.wall_ms = 0.0;
  return net::to_payload(result);
}

TEST(NetServer, PipelinedLargeLoadsMatchInProcessBitExactly) {
  // Two 40k-job loads (1.3 MB frames, many reads each) written back to
  // back before either reply is read, then both solves the same way.
  ServerFixture fx;
  TraceParams tp;
  tp.n = 40000;
  tp.g = 8;
  tp.seed = 17;
  const Instance trace = gen_trace(tp);
  RawConn conn(fx.server.port());
  const std::string load = net::frame_of(net::MsgType::kLoadInstance, trace);
  conn.send_bytes(load + load);
  std::vector<std::uint64_t> handles;
  for (int k = 0; k < 2; ++k) {
    const net::Frame reply = conn.read_frame();
    ASSERT_EQ(reply.type, net::MsgType::kHandle);
    net::obinstream m(reply.payload);
    std::uint64_t id = 0, jobs = 0;
    m >> id >> jobs;
    EXPECT_EQ(jobs, trace.size());
    handles.push_back(id);
  }
  EXPECT_NE(handles[0], handles[1]);

  SolverSpec spec;
  spec.name = "auto";
  conn.send_bytes(net::frame_of(net::MsgType::kSolve, handles[0], spec) +
                  net::frame_of(net::MsgType::kSolve, handles[1], spec));
  Service local;
  const std::string expected = fingerprint(local.solve(local.load(trace), spec));
  for (int k = 0; k < 2; ++k) {
    const net::Frame reply = conn.read_frame();
    ASSERT_EQ(reply.type, net::MsgType::kResult);
    const SolveResult remote = net::from_payload<SolveResult>(reply.payload);
    EXPECT_TRUE(remote.valid);
    EXPECT_EQ(fingerprint(remote), expected) << "load " << k;
  }
  EXPECT_EQ(fx.counter(obs::metric::kNetDecodeErrors), 0u);
}

TEST(NetServer, DeadlineTravelsInsideTheSpec) {
  ServerFixture fx;
  net::Client client("127.0.0.1", fx.server.port());
  GenParams p;
  p.n = 4000;
  p.g = 3;
  p.seed = 5;
  const net::RemoteHandle remote = client.load(gen_general(p));
  SolverSpec spec;
  spec.name = "auto";
  spec.options.deadline_ms = 1e-6;  // expires during queue wait
  const SolveResult result = client.solve(remote, spec);
  EXPECT_EQ(result.status, SolveStatus::kDeadline);
}

TEST(NetServer, SolveFailuresArriveAsTypedErrors) {
  ServerFixture fx;
  net::Client client("127.0.0.1", fx.server.port());
  const net::RemoteHandle remote = client.load(small_instance());

  SolverSpec unknown;
  unknown.name = "no_such_solver";
  try {
    client.solve(remote, unknown);
    FAIL() << "expected a RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kSolveFailed);
  }

  // The connection survives a failed solve.
  client.ping();

  net::RemoteHandle bogus;
  bogus.id = 999;
  SolverSpec spec;
  spec.name = "auto";
  try {
    client.solve(bogus, spec);
    FAIL() << "expected a RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::WireErrorCode::kBadHandle);
  }
}

TEST(NetServer, HandlesAreConnectionScopedAndReleasedOnDisconnect) {
  ServerFixture fx;
  net::RemoteHandle first;
  {
    net::Client client("127.0.0.1", fx.server.port());
    first = client.load(small_instance());
    EXPECT_EQ(first.id, 1u);
  }  // disconnect releases the handle table

  // A fresh connection neither sees the old handle nor collides with it.
  net::Client client("127.0.0.1", fx.server.port());
  SolverSpec spec;
  spec.name = "auto";
  EXPECT_THROW(client.solve(first, spec), net::RemoteError);
  const net::RemoteHandle second = client.load(small_instance());
  EXPECT_EQ(second.id, 1u);
  EXPECT_EQ(client.solve(second, spec).status, SolveStatus::kOk);
}

// --------------------------------------------------- live server, hostile

TEST(NetServer, BadMagicGetsTypedErrorThenClose) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  conn.send_bytes("GET / HTTP/1.1\r\n\r\n");  // the classic wrong protocol
  expect_error_reply(conn, net::WireErrorCode::kBadMagic);
  EXPECT_TRUE(conn.reaches_eof());
  EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, 1));
}

TEST(NetServer, OversizedFrameGetsTypedErrorThenClose) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  net::ibinstream header;
  header << net::kMagic << static_cast<std::uint8_t>(net::MsgType::kLoadInstance)
         << std::uint32_t{1u << 30};  // 1 GiB declared payload
  conn.send_bytes(header.buffer());
  expect_error_reply(conn, net::WireErrorCode::kOversizedFrame);
  EXPECT_TRUE(conn.reaches_eof());
  EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, 1));
}

TEST(NetServer, UnknownMessageTypeGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  net::ibinstream frame;
  frame << net::kMagic << std::uint8_t{200}  // no such MsgType
        << std::uint32_t{0};
  conn.send_bytes(frame.buffer());
  expect_error_reply(conn, net::WireErrorCode::kUnknownMessage);
  EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, 1));

  // Framing stayed intact, so the next request on the same connection works.
  conn.send_bytes(net::encode_frame(net::MsgType::kPing));
  EXPECT_EQ(conn.read_frame().type, net::MsgType::kPong);
}

TEST(NetServer, BadPayloadGetsTypedErrorAndConnectionSurvives) {
  ServerFixture fx;
  RawConn conn(fx.server.port());
  conn.send_bytes(
      net::encode_frame(net::MsgType::kLoadInstance, "not an instance"));
  expect_error_reply(conn, net::WireErrorCode::kBadPayload);
  EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, 1));
  conn.send_bytes(net::encode_frame(net::MsgType::kPing));
  EXPECT_EQ(conn.read_frame().type, net::MsgType::kPong);

  // Well-framed solves whose options fail their check on arrival.
  conn.send_bytes(net::encode_frame(net::MsgType::kLoadInstance,
                                    net::to_payload(small_instance())));
  const net::Frame loaded = conn.read_frame();
  ASSERT_EQ(loaded.type, net::MsgType::kHandle);
  std::uint64_t handle = 0;
  net::obinstream reply(loaded.payload);
  reply >> handle;
  const auto solve_frame = [handle](const SolverSpec& spec) {
    net::ibinstream body;
    body << handle << spec;
    return net::encode_frame(net::MsgType::kSolve, body.buffer());
  };
  SolverSpec nan_deadline;
  nan_deadline.options.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  SolverSpec zero_batch;
  zero_batch.options.max_batch = 0;
  std::uint64_t errors = 1;
  for (const SolverSpec& spec : {nan_deadline, zero_batch}) {
    conn.send_bytes(solve_frame(spec));
    const net::RemoteError error =
        expect_error_reply(conn, net::WireErrorCode::kBadPayload);
    EXPECT_NE(std::string(error.what()).find(spec.options.non_default_keys().at(0)),
              std::string::npos)
        << error.what();
    EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, ++errors));
  }
  // The connection keeps serving.
  conn.send_bytes(solve_frame(SolverSpec{}));
  const net::Frame result = conn.read_frame();
  ASSERT_EQ(result.type, net::MsgType::kResult);
  EXPECT_EQ(net::from_payload<SolveResult>(result.payload).status, SolveStatus::kOk);
}

TEST(NetServer, MidFrameDisconnectCountsAsDecodeErrorWithoutUB) {
  ServerFixture fx;
  {
    RawConn conn(fx.server.port());
    const std::string whole = net::encode_frame(
        net::MsgType::kLoadInstance, std::string(1000, 'x'));
    conn.send_bytes(whole.substr(0, 40));  // header + partial payload
    // Half-close the write side: the server sees EOF mid-frame but can
    // still answer on the read side.
    ::shutdown(conn.fd, SHUT_WR);
    expect_error_reply(conn, net::WireErrorCode::kTruncatedFrame);
    EXPECT_TRUE(conn.reaches_eof());
  }
  EXPECT_TRUE(fx.wait_counter(obs::metric::kNetDecodeErrors, 1));

  // The server is unaffected: a new client round-trips normally.
  net::Client client("127.0.0.1", fx.server.port());
  client.ping();
}

TEST(NetServer, ShutdownFrameDrainsAndStopsTheLoop) {
  Service service;
  net::Server server(service);
  std::thread reactor([&] { server.run(); });
  {
    net::Client client("127.0.0.1", server.port());
    const net::RemoteHandle handle = client.load(small_instance());
    SolverSpec spec;
    spec.name = "auto";
    EXPECT_EQ(client.solve(handle, spec).status, SolveStatus::kOk);
    client.shutdown_server();
  }
  reactor.join();  // run() returned because of the shutdown frame
  EXPECT_EQ(server.open_connections(), 0u);

  const obs::MetricsSnapshot snapshot = service.metrics_snapshot();
  EXPECT_GE(snapshot.counter_value(obs::metric::kNetConnections), 1u);
  EXPECT_GE(snapshot.counter_value(obs::metric::kNetFramesIn), 3u);
  EXPECT_EQ(snapshot.counter_value(obs::metric::kNetFramesIn),
            snapshot.counter_value(obs::metric::kNetFramesOut));
  EXPECT_EQ(snapshot.gauge_value(obs::metric::kNetInflight), 0);
}

TEST(NetServer, ConcurrentClientsGetIdenticalResults) {
  ServerFixture fx;
  const Instance inst = small_instance(11);

  Service local;
  SolverSpec spec;
  spec.name = "auto";
  const SolveResult expected = local.solve(local.load(inst), spec);

  constexpr int kClients = 4;
  constexpr int kSolvesEach = 3;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      net::Client client("127.0.0.1", fx.server.port());
      const net::RemoteHandle handle = client.load(inst);
      for (int i = 0; i < kSolvesEach; ++i) {
        const SolveResult got = client.solve(handle, spec);
        if (got.schedule.assignment() != expected.schedule.assignment() ||
            got.cost != expected.cost || got.status != expected.status)
          mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fx.counter(obs::metric::kNetDecodeErrors), 0u);
}

}  // namespace
}  // namespace busytime
