// busytime-wire-v1: compact binary serialization for the remote serving
// tier.
//
// The stream-operator idiom (after PPA-Assembler's ibinstream/obinstream):
// an `ibinstream` collects bytes through `operator<<`, an `obinstream`
// replays them through `operator>>`, and every wire type gets exactly one
// `<<`/`>>` pair that composes out of the pairs of its fields — no
// per-field tags, no framing inside a payload.  Framing (message type +
// length) lives one layer up in net/protocol.hpp.
//
// Encoding rules, fixed for the v1 wire format:
//  * integers are little-endian, fixed width (u8/u16/u32/u64 and the
//    two's-complement i32/i64 views) — independent of host endianness;
//    each moves as one whole word (store_le/load_le), not byte by byte;
//  * bool is one byte (0/1); doubles are their IEEE-754 bit pattern as u64,
//    so a round trip is bit-exact and the determinism contract extends
//    across the wire;
//  * strings and vectors are a u32 element count followed by the elements;
//    optionals are a presence byte followed by the value when present.
//
// Decoding is defensive: obinstream throws WireError on any overrun, and
// the domain-type readers validate the same invariants the text parsers do
// (positive job lengths, g >= 1, ids in range), so a hostile payload can
// never construct an invariant-breaking object or trigger UB.  Element
// counts are bounds-checked against the remaining bytes before any
// allocation, so a forged count cannot force an out-of-memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "online/event.hpp"

namespace busytime::net {

/// Version tag of the binary wire format (payload layouts + framing).
inline constexpr char kWireFormat[] = "busytime-wire-v1";

/// Raised on malformed binary input: truncated streams, counts exceeding
/// the payload, or field values that violate a domain invariant.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// ------------------------------------------------------------ byte order --

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kLittleEndianHost = true;
#else
inline constexpr bool kLittleEndianHost = false;  // big-endian or unknown
#endif

/// Stores `v` at `dst` as a little-endian word: one memcpy on a
/// little-endian host, a portable shift loop (a byte swap on a big-endian
/// host) otherwise.  `dst` needs no alignment.
template <typename U>
inline void store_le(char* dst, U v) noexcept {
  static_assert(std::is_unsigned<U>::value, "wire words are unsigned");
  if constexpr (kLittleEndianHost) {
    std::memcpy(dst, &v, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      dst[i] = static_cast<char>(v >> (8 * i));
  }
}

/// Inverse of store_le: the little-endian word at `src` as a host value.
template <typename U>
inline U load_le(const char* src) noexcept {
  static_assert(std::is_unsigned<U>::value, "wire words are unsigned");
  U v = 0;
  if constexpr (kLittleEndianHost) {
    std::memcpy(&v, src, sizeof(U));
  } else {
    for (std::size_t i = 0; i < sizeof(U); ++i)
      v = static_cast<U>(v | static_cast<U>(static_cast<unsigned char>(src[i]))
                                 << (8 * i));
  }
  return v;
}

/// True when an array of T in memory is already its busytime-wire-v1
/// image, so a vector of T travels as one copy: the fixed-width scalars
/// with their own `<<`/`>>` pair, on a little-endian host.  bool is not
/// one of them (its reader rejects bytes other than 0 and 1).
template <typename T>
inline constexpr bool kWireImageIsMemory =
    kLittleEndianHost &&
    (std::is_same<T, std::uint8_t>::value || std::is_same<T, std::uint16_t>::value ||
     std::is_same<T, std::uint32_t>::value || std::is_same<T, std::uint64_t>::value ||
     std::is_same<T, std::int32_t>::value || std::is_same<T, std::int64_t>::value ||
     std::is_same<T, double>::value);

// ----------------------------------------------------------------- writer --

/// Byte-collecting output stream (the PPA "ibinstream": *i*nto the wire).
class ibinstream {
 public:
  void raw(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  /// Makes room for `n` more bytes.  The capacity grows to the next power
  /// of two, the size the string's own doubling would reach, so nested
  /// compound writers reserving in turn stay amortised O(1) and the
  /// process frees the same few block sizes request after request.  That
  /// matters to glibc, which sets its heap trim threshold to twice the
  /// largest mmapped block freed: with exact 4.8 MB buffers, every
  /// 150k-job request trimmed the heap and faulted ~9 MB back in.
  void reserve_more(std::size_t n) {
    const std::size_t need = buf_.size() + n;
    if (need <= buf_.capacity()) return;
    std::size_t capacity = 64;
    while (capacity < need) capacity *= 2;
    buf_.reserve(capacity);
  }

  void write_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void write_u16(std::uint16_t v) { write_word(v); }
  void write_u32(std::uint32_t v) { write_word(v); }
  void write_u64(std::uint64_t v) { write_word(v); }

  const std::string& buffer() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  template <typename U>
  void write_word(U v) {
    char bytes[sizeof(U)];
    store_le(bytes, v);
    buf_.append(bytes, sizeof(U));
  }

  std::string buf_;
};

// ----------------------------------------------------------------- reader --

/// Bounds-checked input stream over a byte buffer it does not own (the PPA
/// "obinstream": *o*ut of the wire).  The buffer must outlive the stream.
class obinstream {
 public:
  obinstream(const char* data, std::size_t size) : data_(data), size_(size) {}
  explicit obinstream(const std::string& buf) : obinstream(buf.data(), buf.size()) {}

  std::size_t remaining() const noexcept { return size_ - pos_; }
  bool done() const noexcept { return pos_ >= size_; }

  /// Throws WireError unless `n` more bytes are available.
  void require(std::size_t n) const {
    if (n > remaining())
      throw WireError("truncated wire payload: need " + std::to_string(n) +
                      " bytes, have " + std::to_string(remaining()));
  }

  /// Guards a declared element count before any allocation: each element
  /// consumes at least `min_wire_bytes` on the wire, so a count the
  /// remaining payload cannot possibly hold is forged — and the in-memory
  /// reservation `count * elem_bytes` must not overflow std::size_t.  Both
  /// checks use division so the comparisons themselves cannot overflow.
  void require_count(std::size_t count, std::size_t min_wire_bytes,
                     std::size_t elem_bytes) const {
    if (count == 0) return;
    if (count > remaining() / min_wire_bytes)
      throw WireError("forged element count " + std::to_string(count) +
                      ": needs >= " + std::to_string(min_wire_bytes) +
                      " bytes each, only " + std::to_string(remaining()) +
                      " remain");
    if (count > SIZE_MAX / elem_bytes)
      throw WireError("element count " + std::to_string(count) +
                      " overflows the reservation size");
  }

  void raw(void* out, std::size_t n) {
    require(n);
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::uint8_t read_u8() {
    require(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t read_u16() { return read_word<std::uint16_t>(); }
  std::uint32_t read_u32() { return read_word<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_word<std::uint64_t>(); }

 private:
  template <typename U>
  U read_word() {
    require(sizeof(U));
    const U v = load_le<U>(data_ + pos_);
    pos_ += sizeof(U);
    return v;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- primitives --

inline ibinstream& operator<<(ibinstream& m, std::uint8_t v) { m.write_u8(v); return m; }
inline ibinstream& operator<<(ibinstream& m, std::uint16_t v) { m.write_u16(v); return m; }
inline ibinstream& operator<<(ibinstream& m, std::uint32_t v) { m.write_u32(v); return m; }
inline ibinstream& operator<<(ibinstream& m, std::uint64_t v) { m.write_u64(v); return m; }
inline ibinstream& operator<<(ibinstream& m, std::int32_t v) {
  m.write_u32(static_cast<std::uint32_t>(v));
  return m;
}
inline ibinstream& operator<<(ibinstream& m, std::int64_t v) {
  m.write_u64(static_cast<std::uint64_t>(v));
  return m;
}
inline ibinstream& operator<<(ibinstream& m, bool v) {
  m.write_u8(v ? 1 : 0);
  return m;
}
inline ibinstream& operator<<(ibinstream& m, double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t), "IEEE-754 doubles");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  m.write_u64(bits);
  return m;
}
inline ibinstream& operator<<(ibinstream& m, const std::string& s) {
  if (s.size() > UINT32_MAX)
    throw WireError("string exceeds the u32 wire length");
  m.write_u32(static_cast<std::uint32_t>(s.size()));
  m.raw(s.data(), s.size());
  return m;
}

inline obinstream& operator>>(obinstream& m, std::uint8_t& v) { v = m.read_u8(); return m; }
inline obinstream& operator>>(obinstream& m, std::uint16_t& v) { v = m.read_u16(); return m; }
inline obinstream& operator>>(obinstream& m, std::uint32_t& v) { v = m.read_u32(); return m; }
inline obinstream& operator>>(obinstream& m, std::uint64_t& v) { v = m.read_u64(); return m; }
inline obinstream& operator>>(obinstream& m, std::int32_t& v) {
  v = static_cast<std::int32_t>(m.read_u32());
  return m;
}
inline obinstream& operator>>(obinstream& m, std::int64_t& v) {
  v = static_cast<std::int64_t>(m.read_u64());
  return m;
}
inline obinstream& operator>>(obinstream& m, bool& v) {
  const std::uint8_t byte = m.read_u8();
  if (byte > 1) throw WireError("bool byte must be 0 or 1");
  v = byte != 0;
  return m;
}
inline obinstream& operator>>(obinstream& m, double& v) {
  std::uint64_t bits = m.read_u64();
  std::memcpy(&v, &bits, sizeof(v));
  return m;
}
inline obinstream& operator>>(obinstream& m, std::string& s) {
  const std::uint32_t n = m.read_u32();
  m.require(n);
  s.resize(n);
  if (n > 0) m.raw(&s[0], n);
  return m;
}

// -------------------------------------------------------------- compounds --

/// Minimum bytes one T consumes on the wire — the amplification bound the
/// vector reader checks a declared count against.  The primary template
/// covers fixed-width scalars and falls back to 1 byte for anything else,
/// so every compound type that travels in a vector specializes it with its
/// true floor; otherwise a forged count reserves memory many times the
/// payload size (a count claiming 1000 ComponentTraces, 40 bytes each in
/// memory, in 1000 bytes of payload).  The floor must never exceed the
/// minimal encoding, or valid payloads would be rejected.
template <typename T>
struct WireMinBytes {
  static constexpr std::size_t value =
      std::is_arithmetic<T>::value ? sizeof(T) : 1;
};
template <>
struct WireMinBytes<bool> {
  static constexpr std::size_t value = 1;
};
template <>
struct WireMinBytes<std::string> {
  static constexpr std::size_t value = 4;  // u32 length prefix
};
template <>
struct WireMinBytes<Interval> {
  static constexpr std::size_t value = 16;  // two i64 endpoints
};
template <>
struct WireMinBytes<Job> {
  static constexpr std::size_t value = 32;  // interval + weight + demand
};
template <>
struct WireMinBytes<CancelRecord> {
  static constexpr std::size_t value = 13;  // i32 job + i64 at + bool
};
template <>
struct WireMinBytes<ComponentTrace> {
  static constexpr std::size_t value = 12;  // u64 jobs + u32 algo length
};

template <typename T>
ibinstream& operator<<(ibinstream& m, const std::vector<T>& v) {
  if (v.size() > UINT32_MAX)
    throw WireError("vector exceeds the u32 wire length");
  // One reservation for the count and every element's floor: exact for
  // fixed-width elements, a lower bound for the rest.
  m.reserve_more(4 + v.size() * WireMinBytes<T>::value);
  m.write_u32(static_cast<std::uint32_t>(v.size()));
  if constexpr (kWireImageIsMemory<T>) {
    if (!v.empty()) m.raw(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& e : v) m << e;
  }
  return m;
}

template <typename T>
obinstream& operator>>(obinstream& m, std::vector<T>& v) {
  const std::uint32_t n = m.read_u32();
  // A count the remaining payload cannot hold is forged; reject before the
  // reserve so a hostile 4-byte count can neither amplify into a huge
  // allocation nor overflow the n * sizeof(T) reservation arithmetic.
  m.require_count(n, WireMinBytes<T>::value, sizeof(T));
  v.clear();
  if constexpr (kWireImageIsMemory<T>) {
    v.resize(n);
    if (n > 0) m.raw(v.data(), n * sizeof(T));
  } else {
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      T e{};
      m >> e;
      v.push_back(std::move(e));
    }
  }
  return m;
}

template <typename T>
ibinstream& operator<<(ibinstream& m, const std::optional<T>& v) {
  m << v.has_value();
  if (v.has_value()) m << *v;
  return m;
}

template <typename T>
obinstream& operator>>(obinstream& m, std::optional<T>& v) {
  bool present = false;
  m >> present;
  if (present) {
    T e{};
    m >> e;
    v = std::move(e);
  } else {
    v.reset();
  }
  return m;
}

// -------------------------------------------------------------- wire types --
// One pair per type; layouts documented in docs/FORMATS.md under
// "busytime-wire-v1".  Readers validate the same invariants as the text
// parsers and throw WireError on violation.

ibinstream& operator<<(ibinstream& m, const Interval& iv);
obinstream& operator>>(obinstream& m, Interval& iv);

ibinstream& operator<<(ibinstream& m, const Job& job);
obinstream& operator>>(obinstream& m, Job& job);

ibinstream& operator<<(ibinstream& m, const Instance& inst);
obinstream& operator>>(obinstream& m, Instance& inst);

ibinstream& operator<<(ibinstream& m, const CancelRecord& record);
obinstream& operator>>(obinstream& m, CancelRecord& record);

ibinstream& operator<<(ibinstream& m, const EventTrace& trace);
obinstream& operator>>(obinstream& m, EventTrace& trace);

ibinstream& operator<<(ibinstream& m, const Schedule& schedule);
obinstream& operator>>(obinstream& m, Schedule& schedule);

ibinstream& operator<<(ibinstream& m, const ComponentTrace& trace);
obinstream& operator>>(obinstream& m, ComponentTrace& trace);

ibinstream& operator<<(ibinstream& m, const CostBounds& bounds);
obinstream& operator>>(obinstream& m, CostBounds& bounds);

ibinstream& operator<<(ibinstream& m, const EngineStats& stats);
obinstream& operator>>(obinstream& m, EngineStats& stats);

ibinstream& operator<<(ibinstream& m, SolveStatus status);
obinstream& operator>>(obinstream& m, SolveStatus& status);

ibinstream& operator<<(ibinstream& m, const SolveResult& result);
obinstream& operator>>(obinstream& m, SolveResult& result);

/// SolverOptions / SolverSpec serialize every typed option field (defaults
/// included), so a remote solve sees exactly the options the client built.
/// The runtime-only members (cancel token, trace context, request context)
/// are never serialized, matching their in-process contract.
ibinstream& operator<<(ibinstream& m, const SolverOptions& options);
obinstream& operator>>(obinstream& m, SolverOptions& options);

ibinstream& operator<<(ibinstream& m, const SolverSpec& spec);
obinstream& operator>>(obinstream& m, SolverSpec& spec);

/// Convenience: serialize one value into a standalone payload string.
template <typename T>
std::string to_payload(const T& value) {
  ibinstream m;
  m << value;
  return m.take();
}

/// Convenience: parse one value out of a complete payload; throws WireError
/// when trailing bytes remain (a payload must be exactly one message body).
template <typename T>
T from_payload(const std::string& payload) {
  obinstream m(payload);
  T value{};
  m >> value;
  if (!m.done())
    throw WireError("payload carries " + std::to_string(m.remaining()) +
                    " trailing bytes");
  return value;
}

}  // namespace busytime::net
