// libFuzzer harness for net::FrameDecoder, the incremental frame parser
// every remote connection's bytes flow through.  Build with
// -DBUSYTIME_BUILD_FUZZERS=ON (clang only); see fuzz/README.md.
//
// The first byte of an input picks the slice length; the rest is the byte
// stream, fed through feed() in slices of that length with a next() poll
// after each, so one corpus entry exercises many reassembly paths.  Short
// slices (1-7 bytes) split headers anywhere; long ones (4-64 KiB) put
// several frames in one slice and complete a payload that spans slices in
// the middle of one.  The decoder's contract under arbitrary bytes:
//   - next() never throws and never returns a payload above the cap,
//   - poisoning is sticky (every later next() reports kError).

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "net/protocol.hpp"

using busytime::net::Frame;
using busytime::net::FrameDecoder;

namespace {

/// Selector values 0-6 give 1-7 bytes, 7-11 give 4, 8, 16, 32 and 64 KiB.
std::size_t slice_length(std::uint8_t selector) {
  const unsigned pick = selector % 12u;
  return pick < 7 ? pick + 1 : std::size_t{4096} << (pick - 7);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const std::size_t stride = slice_length(data[0]);
  ++data;
  --size;
  FrameDecoder decoder;
  Frame frame;
  bool poisoned = false;
  for (std::size_t off = 0; off < size;) {
    const std::size_t n = std::min(stride, size - off);
    decoder.feed(reinterpret_cast<const char*>(data + off), n);
    off += n;
    FrameDecoder::Status status;
    while ((status = decoder.next(frame)) == FrameDecoder::Status::kFrame) {
      if (frame.payload.size() > busytime::net::kMaxPayloadBytes)
        __builtin_trap();
      if (poisoned) __builtin_trap();  // frames must stop after poisoning
    }
    if (status == FrameDecoder::Status::kError) poisoned = true;
    if (poisoned != decoder.poisoned()) __builtin_trap();
  }
  if (poisoned && decoder.next(frame) != FrameDecoder::Status::kError)
    __builtin_trap();
  return 0;
}
