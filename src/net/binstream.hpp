// busytime-wire-v1: compact binary serialization for the remote serving
// tier.
//
// The stream-operator idiom (after PPA-Assembler's ibinstream/obinstream):
// an `ibinstream` collects bytes through `operator<<`, an `obinstream`
// replays them through `operator>>`, and every wire type gets exactly one
// `<<`/`>>` pair that composes out of the pairs of its fields — no
// per-field tags, no framing inside a payload.  A record with a field list
// (util/fields.hpp) gets its pair from that list; the rest are written
// here by hand.  Framing (message type + length) lives one layer up in
// net/protocol.hpp.
//
// Encoding rules, fixed for the v1 wire format:
//  * integers are little-endian, fixed width (u8/u16/u32/u64 and the
//    two's-complement i32/i64 views) — independent of host endianness;
//    each moves as one whole word (store_le/load_le), not byte by byte;
//  * bool is one byte (0/1); doubles are their IEEE-754 bit pattern as u64,
//    so a round trip is bit-exact and the determinism contract extends
//    across the wire;
//  * strings and vectors are a u32 element count followed by the elements;
//  * a record is its fields in list order, which is declaration order.
//
// Decoding is defensive: obinstream throws WireError on any overrun, and
// every reader runs the same invariant checks as the text parsers
// (positive job lengths, g >= 1, ids in range, each record's check()), so
// a hostile payload can never construct an invariant-breaking object or
// trigger UB.  Element counts are bounds-checked against the remaining
// bytes before any allocation, so a forged count cannot force an
// out-of-memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/solve_result.hpp"
#include "api/solver_spec.hpp"
#include "core/instance.hpp"
#include "core/schedule.hpp"
#include "online/event.hpp"
#include "util/fields.hpp"

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

/// The unsigned word a scalar travels as: same width, same bits.  Other
/// widths (long double) have no wire form.
template <std::size_t Bytes>
struct WordOfWidth;
template <> struct WordOfWidth<1> { using type = std::uint8_t; };
template <> struct WordOfWidth<2> { using type = std::uint16_t; };
template <> struct WordOfWidth<4> { using type = std::uint32_t; };
template <> struct WordOfWidth<8> { using type = std::uint64_t; };
template <typename T>
using WireWord = typename WordOfWidth<sizeof(T)>::type;

/// True when an array of T in memory is already its busytime-wire-v1
/// image, so a vector of T travels as one copy: the fixed-width scalars on
/// a little-endian host.  bool is not one of them (its reader rejects
/// bytes other than 0 and 1).
template <typename T>
inline constexpr bool kWireImageIsMemory =
    kLittleEndianHost && std::is_arithmetic<T>::value && !std::is_same<T, bool>::value;

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

  /// Appends the unsigned word `v` little-endian.
  template <typename U>
  void write(U v) {
    char bytes[sizeof(U)];
    store_le(bytes, v);
    buf_.append(bytes, sizeof(U));
  }

  const std::string& buffer() const noexcept { return buf_; }
  std::string take() { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
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
    std::memcpy(out, consume(n), n);
  }

  /// Consumes `n` bytes and returns where they start in the buffer.
  const char* consume(std::size_t n) {
    require(n);
    const char* bytes = data_ + pos_;
    pos_ += n;
    return bytes;
  }

  /// Consumes one little-endian unsigned word.
  template <typename U>
  U read() {
    require(sizeof(U));
    const U v = load_le<U>(data_ + pos_);
    pos_ += sizeof(U);
    return v;
  }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------- primitives --

/// Every scalar: integers as their two's-complement word, doubles as their
/// bit pattern, bool as one byte.
template <typename T, std::enable_if_t<std::is_arithmetic<T>::value, int> = 0>
ibinstream& operator<<(ibinstream& m, T v) {
  WireWord<T> word = 0;
  if constexpr (std::is_same<T, bool>::value) {
    word = v ? 1 : 0;
  } else {
    std::memcpy(&word, &v, sizeof(word));
  }
  m.write(word);
  return m;
}

template <typename T, std::enable_if_t<std::is_arithmetic<T>::value, int> = 0>
obinstream& operator>>(obinstream& m, T& v) {
  const WireWord<T> word = m.read<WireWord<T>>();
  if constexpr (std::is_same<T, bool>::value) {
    if (word > 1) throw WireError("bool byte must be 0 or 1");
    v = word != 0;
  } else {
    std::memcpy(&v, &word, sizeof(v));
  }
  return m;
}

inline ibinstream& operator<<(ibinstream& m, const std::string& s) {
  if (s.size() > UINT32_MAX)
    throw WireError("string exceeds the u32 wire length");
  m << static_cast<std::uint32_t>(s.size());
  m.raw(s.data(), s.size());
  return m;
}

inline obinstream& operator>>(obinstream& m, std::string& s) {
  const auto n = m.read<std::uint32_t>();
  m.require(n);
  s.resize(n);
  if (n > 0) m.raw(&s[0], n);
  return m;
}

// -------------------------------------------------------------- compounds --

/// Minimum bytes one T consumes on the wire — the amplification bound the
/// vector reader checks a declared count against.  Scalars take their
/// width, a record the sum of its fields' floors, anything else 1 byte;
/// the compound types that travel in vectors and have no field list
/// specialize it with their true floor.  Otherwise a forged count reserves
/// memory many times the payload size (a count claiming 1000 elements of
/// 40 bytes in memory, in 1000 bytes of payload).  The floor must never
/// exceed the minimal encoding, or valid payloads would be rejected.
template <typename T>
struct WireMinBytes {
  static constexpr std::size_t value = [] {
    std::size_t sum = std::is_arithmetic<T>::value ? sizeof(T) : 1;
    if constexpr (util::HasFields<T>::value) {
      sum = 0;
      T::fields([&sum](const char*, auto member) {
        sum += WireMinBytes<std::decay_t<decltype(std::declval<T&>().*member)>>::value;
      });
    }
    return sum;
  }();
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

// A Job in memory is its wire record on a little-endian host: the four
// 8-byte fields in wire order, no padding.  The vector<Job> codec moves
// whole arrays on that assumption.
static_assert(std::is_trivially_copyable<Job>::value &&
                  std::is_standard_layout<Job>::value,
              "Job must be copyable as bytes");
static_assert(sizeof(Job) == WireMinBytes<Job>::value &&
                  offsetof(Job, interval) == 0 && offsetof(Interval, start) == 0 &&
                  offsetof(Interval, completion) == 8 &&
                  offsetof(Job, weight) == 16 && offsetof(Job, demand) == 24,
              "Job's memory layout must be its 32-byte wire record");

template <typename T>
ibinstream& operator<<(ibinstream& m, const std::vector<T>& v) {
  if (v.size() > UINT32_MAX)
    throw WireError("vector exceeds the u32 wire length");
  // One reservation for the count and every element's floor: exact for
  // fixed-width elements, a lower bound for the rest.
  m.reserve_more(4 + v.size() * WireMinBytes<T>::value);
  m << static_cast<std::uint32_t>(v.size());
  if constexpr (kWireImageIsMemory<T>) {
    if (!v.empty()) m.raw(v.data(), v.size() * sizeof(T));
  } else {
    for (const T& e : v) m << e;
  }
  return m;
}

template <typename T>
obinstream& operator>>(obinstream& m, std::vector<T>& v) {
  const auto n = m.read<std::uint32_t>();
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

/// A record with a field list: its fields in list order.  The reader runs
/// the record's check() and reports a violation as WireError.
template <typename T, std::enable_if_t<util::HasFields<T>::value, int> = 0>
ibinstream& operator<<(ibinstream& m, const T& record) {
  T::fields([&](const char*, auto member) { m << record.*member; });
  return m;
}

template <typename T, std::enable_if_t<util::HasFields<T>::value, int> = 0>
obinstream& operator>>(obinstream& m, T& record) {
  T::fields([&](const char*, auto member) { m >> record.*member; });
  try {
    util::check_fields(record);
  } catch (const std::invalid_argument& e) {
    throw WireError(e.what());
  }
  return m;
}

// -------------------------------------------------------------- wire types --
// The layouts that are not a field list; documented in docs/FORMATS.md
// under "busytime-wire-v1".  Readers validate the same invariants as the
// text parsers and throw WireError on violation.

ibinstream& operator<<(ibinstream& m, const Interval& iv);
obinstream& operator>>(obinstream& m, Interval& iv);

ibinstream& operator<<(ibinstream& m, const Job& job);
obinstream& operator>>(obinstream& m, Job& job);

/// The instance codec's hot path, in the generic vector layout (u32 count,
/// then 32-byte records).  The writer copies the array as one block on a
/// little-endian host, record by record otherwise; the reader reads,
/// checks and appends each record in one pass, with Job's checks and
/// messages, so the first bad record is the one reported.
ibinstream& operator<<(ibinstream& m, const std::vector<Job>& jobs);
obinstream& operator>>(obinstream& m, std::vector<Job>& jobs);

ibinstream& operator<<(ibinstream& m, const Instance& inst);
obinstream& operator>>(obinstream& m, Instance& inst);

ibinstream& operator<<(ibinstream& m, const EventTrace& trace);
obinstream& operator>>(obinstream& m, EventTrace& trace);

ibinstream& operator<<(ibinstream& m, const Schedule& schedule);
obinstream& operator>>(obinstream& m, Schedule& schedule);

ibinstream& operator<<(ibinstream& m, SolveStatus status);
obinstream& operator>>(obinstream& m, SolveStatus& status);

/// SolveResult is written from its field list; its reader walks the same
/// list but lets the trailing `cached` byte be absent.
obinstream& operator>>(obinstream& m, SolveResult& result);

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
