// busytime-wire-v1 framing and message protocol for the remote serving
// tier.
//
// Every message on a connection is one length-prefixed frame:
//
//   u32 magic     0x42545731 ("BTW1" read as a little-endian u32)
//   u8  type      MsgType
//   u32 length    payload bytes that follow (hard cap: kMaxPayloadBytes)
//   ...           payload, a single busytime-wire-v1 body (net/binstream)
//
// Request/response pairs (one response frame per request frame, in request
// order on a connection):
//
//   kPing          -> kPong            liveness, empty payloads
//   kLoadInstance  -> kHandle          Instance        -> connection handle
//   kLoadTrace     -> kHandle          EventTrace      -> connection handle
//   kSolve         -> kResult          u64 handle + SolverSpec -> SolveResult
//   kListSolvers   -> kSolverList      empty -> vector<WireSolverInfo>
//   kReleaseHandle -> kReleased        u64 handle -> empty
//   kShutdown      -> kShuttingDown    empty -> empty, then the server drains
//                                      in-flight solves and exits its loop
//
// Any malformed input — bad magic, oversized length, unknown type, a
// payload that fails to decode, an unknown handle — produces a typed
// kError frame (WireErrorCode + message) instead of a crash or a silent
// close; only desyncing errors (bad magic, oversized frame) also close the
// connection, because the byte stream can no longer be trusted.
//
// The FrameDecoder below is the single incremental parser both the server
// reactor and the robustness tests drive: feed() arbitrary byte slices,
// poll next() for complete frames.  It never throws on wire data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "net/binstream.hpp"

namespace busytime::net {

/// Raised on socket-level failures (connect, send, recv) and, as
/// RemoteError, on typed error frames received from the peer.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// First four bytes of every frame, read as a little-endian u32.
inline constexpr std::uint32_t kMagic = 0x42545731u;  // "1WTB" on the wire

/// Hard cap on one frame's payload.  Far above any real instance (a 64 MiB
/// payload holds ~2.7M jobs) and small enough that a forged length cannot
/// balloon a connection buffer.
inline constexpr std::size_t kMaxPayloadBytes = 64u << 20;

/// Frame header size: magic + type + length.
inline constexpr std::size_t kFrameHeaderBytes = 4 + 1 + 4;

enum class MsgType : std::uint8_t {
  // Requests (client -> server).
  kPing = 1,
  kLoadInstance = 2,
  kLoadTrace = 3,
  kSolve = 4,
  kListSolvers = 5,
  kReleaseHandle = 6,
  kShutdown = 7,
  // Responses (server -> client).
  kPong = 33,
  kHandle = 34,
  kResult = 35,
  kSolverList = 36,
  kReleased = 37,
  kShuttingDown = 38,
  kError = 63,
};

inline std::string to_string(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kLoadInstance: return "load_instance";
    case MsgType::kLoadTrace: return "load_trace";
    case MsgType::kSolve: return "solve";
    case MsgType::kListSolvers: return "list_solvers";
    case MsgType::kReleaseHandle: return "release_handle";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kPong: return "pong";
    case MsgType::kHandle: return "handle";
    case MsgType::kResult: return "result";
    case MsgType::kSolverList: return "solver_list";
    case MsgType::kReleased: return "released";
    case MsgType::kShuttingDown: return "shutting_down";
    case MsgType::kError: return "error";
  }
  return "unknown(" + std::to_string(static_cast<int>(type)) + ")";
}

/// Typed error codes carried by kError frames (u16 on the wire).
enum class WireErrorCode : std::uint16_t {
  kBadMagic = 1,        ///< frame did not start with kMagic (stream desync)
  kOversizedFrame = 2,  ///< declared payload length exceeds the cap
  kTruncatedFrame = 3,  ///< connection ended mid-frame
  kUnknownMessage = 4,  ///< frame type is not a known request
  kBadPayload = 5,      ///< payload failed busytime-wire-v1 decoding
  kBadHandle = 6,       ///< solve/release named a handle this connection never loaded
  kSolveFailed = 7,     ///< the solve threw (unknown solver, not applicable, ...)
  kShuttingDown = 8,    ///< request refused because the server is draining
};

inline std::string to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kBadMagic: return "bad_magic";
    case WireErrorCode::kOversizedFrame: return "oversized_frame";
    case WireErrorCode::kTruncatedFrame: return "truncated_frame";
    case WireErrorCode::kUnknownMessage: return "unknown_message";
    case WireErrorCode::kBadPayload: return "bad_payload";
    case WireErrorCode::kBadHandle: return "bad_handle";
    case WireErrorCode::kSolveFailed: return "solve_failed";
    case WireErrorCode::kShuttingDown: return "shutting_down";
  }
  return "unknown(" + std::to_string(static_cast<int>(code)) + ")";
}

/// A typed error frame received from the peer, rethrown by the client.
class RemoteError : public NetError {
 public:
  RemoteError(WireErrorCode code, const std::string& message)
      : NetError("remote error [" + to_string(code) + "]: " + message),
        code_(code) {}
  WireErrorCode code() const noexcept { return code_; }

 private:
  WireErrorCode code_;
};

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  std::string payload;
};

/// The sender-side mirror of the decoder's cap: throws WireError when a
/// payload of `bytes` may not travel.
inline void check_frame_payload(std::size_t bytes) {
  if (bytes > kMaxPayloadBytes)
    throw WireError("frame payload of " + std::to_string(bytes) +
                    " bytes exceeds the " + std::to_string(kMaxPayloadBytes) +
                    "-byte cap");
}

/// Encodes one frame (header + payload) from ready payload bytes.  Throws
/// WireError when the payload exceeds the cap.
inline std::string encode_frame(MsgType type, const std::string& payload = {}) {
  check_frame_payload(payload.size());
  ibinstream header;
  header << kMagic << static_cast<std::uint8_t>(type)
         << static_cast<std::uint32_t>(payload.size());
  std::string out = header.take();
  out += payload;
  return out;
}

/// Encodes one frame whose payload is `body...` written back to back, in
/// one buffer: the header, then the body encoded in place behind it, then
/// the length patched in.  Byte for byte encode_frame(type,
/// to_payload(...)) for one value, without a payload string to copy.  A
/// std::string in `body` is a wire string (u32 length + bytes), which is
/// why this is not an encode_frame overload.  Throws WireError when the
/// payload exceeds the cap.
template <typename... Body>
std::string frame_of(MsgType type, const Body&... body) {
  ibinstream m;
  m << kMagic << static_cast<std::uint8_t>(type) << std::uint32_t{0};
  ((m << body), ...);
  std::string frame = m.take();
  const std::size_t payload = frame.size() - kFrameHeaderBytes;
  check_frame_payload(payload);
  store_le(&frame[5], static_cast<std::uint32_t>(payload));
  return frame;
}

/// Encodes a typed error frame.
inline std::string encode_error(WireErrorCode code, const std::string& message) {
  return frame_of(MsgType::kError, static_cast<std::uint16_t>(code), message);
}

/// Decodes a kError payload into a RemoteError (without throwing it).
inline RemoteError decode_error(const std::string& payload) {
  obinstream m(payload);
  std::uint16_t code = 0;
  std::string message;
  try {
    m >> code >> message;
  } catch (const WireError&) {
    return RemoteError(WireErrorCode::kBadPayload, "malformed error frame");
  }
  return RemoteError(static_cast<WireErrorCode>(code), message);
}

/// Incremental frame parser.  feed() bytes as they arrive, then poll next()
/// until it stops returning kFrame.  After a desyncing error (bad magic,
/// oversized length) the decoder is poisoned: every later next() returns
/// kError and the connection should be closed after reporting it.
///
/// A frame that arrives whole in the buffered bytes is copied out of them.
/// A payload that spans reads moves, once next() has read its header, to a
/// buffer of its own reserved at exactly the declared (already capped)
/// length; later feed()s append straight to it, and next() hands it over
/// whole.  Feeding and polling in turn therefore copies a large payload
/// once, whatever the read sizes.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< one frame decoded into `out`
    kError,     ///< stream is poisoned; see error_code()/error_message()
  };

  void feed(const char* data, std::size_t n) {
    if (pending_) {
      const std::size_t take = std::min(n, length_ - payload_.size());
      payload_.append(data, take);
      data += take;
      n -= take;
    }
    buf_.append(data, n);
  }
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  Status next(Frame& out) {
    if (poisoned_) return Status::kError;
    if (pending_) {
      if (payload_.size() < length_) return Status::kNeedMore;
      pending_ = false;
      out.type = type_;
      out.payload = std::exchange(payload_, std::string());
      return Status::kFrame;
    }
    compact();
    if (buf_.size() - pos_ < kFrameHeaderBytes) return Status::kNeedMore;
    obinstream header(buf_.data() + pos_, kFrameHeaderBytes);
    const auto magic = header.read<std::uint32_t>();
    if (magic != kMagic)
      return poison(WireErrorCode::kBadMagic,
                    "frame does not start with the busytime-wire-v1 magic");
    const auto type = static_cast<MsgType>(header.read<std::uint8_t>());
    const auto length = header.read<std::uint32_t>();
    if (length > max_payload_)
      return poison(WireErrorCode::kOversizedFrame,
                    "declared payload of " + std::to_string(length) +
                        " bytes exceeds the " + std::to_string(max_payload_) +
                        "-byte cap");
    const std::size_t body = pos_ + kFrameHeaderBytes;
    if (buf_.size() - body < length) {
      // Every buffered byte belongs to this payload; the rest follows.
      pending_ = true;
      type_ = type;
      length_ = length;
      payload_.reserve(length);
      payload_.assign(buf_, body, std::string::npos);
      buf_.clear();
      pos_ = 0;
      return Status::kNeedMore;
    }
    out.type = type;
    out.payload.assign(buf_, body, length);
    pos_ = body + length;
    compact();
    return Status::kFrame;
  }

  /// True when bytes of an incomplete frame are buffered — at connection
  /// close this is the mid-frame-disconnect signal.
  bool mid_frame() const noexcept {
    return !poisoned_ && (pending_ || buf_.size() > pos_);
  }

  bool poisoned() const noexcept { return poisoned_; }
  WireErrorCode error_code() const noexcept { return code_; }
  const std::string& error_message() const noexcept { return message_; }

 private:
  Status poison(WireErrorCode code, std::string message) {
    poisoned_ = true;
    code_ = code;
    message_ = std::move(message);
    buf_.clear();
    pos_ = 0;
    return Status::kError;
  }

  /// Drops consumed bytes once they dominate the buffer, keeping the common
  /// frame-per-read case allocation-free.
  void compact() {
    if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  std::string buf_;  ///< bytes not yet parsed into a frame
  std::size_t pos_ = 0;
  bool pending_ = false;  ///< a header is read, its payload is still arriving
  MsgType type_ = MsgType::kPing;
  std::size_t length_ = 0;  ///< the pending payload's declared length
  std::string payload_;     ///< the pending payload, reserved at length_
  std::size_t max_payload_;
  bool poisoned_ = false;
  WireErrorCode code_ = WireErrorCode::kBadPayload;
  std::string message_;
};

/// Registry row as it travels in a kSolverList response.
struct WireSolverInfo {
  std::string name;
  std::string kind;
  std::string optimality;
  double ratio = 0;
  bool needs_budget = false;
  std::string description;

  template <typename F>
  static constexpr void fields(F&& f) {
    f("name", &WireSolverInfo::name);
    f("kind", &WireSolverInfo::kind);
    f("optimality", &WireSolverInfo::optimality);
    f("ratio", &WireSolverInfo::ratio);
    f("needs_budget", &WireSolverInfo::needs_budget);
    f("description", &WireSolverInfo::description);
  }
};

}  // namespace busytime::net
