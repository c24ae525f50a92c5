// Replays the committed crash corpus (fuzz/corpus/regressions/) through
// every decoder the fuzz harnesses drive: the frame decoder, every
// busytime-wire-v1 payload type, and the text/JSON readers.
//
// Each corpus entry is an input that once crashed, overflowed, or
// over-allocated; this suite pins the fix forever, under every compiler —
// including the sanitizer CI configurations, where a regression trips
// ASan/UBSan instead of slipping through.  Unlike the libFuzzer harnesses
// (clang-only, opt-in), this is a plain GoogleTest binary in the default
// suite.  See fuzz/README.md for the corpus workflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/serialize.hpp"
#include "net/binstream.hpp"
#include "net/protocol.hpp"

namespace {

using busytime::net::Frame;
using busytime::net::FrameDecoder;
using busytime::net::from_payload;
using busytime::net::WireError;

namespace fs = std::filesystem;

fs::path regressions_dir() {
  return fs::path(BUSYTIME_FUZZ_CORPUS_DIR) / "regressions";
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

std::vector<fs::path> regression_files() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(regressions_dir()))
    if (entry.is_regular_file()) files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  return files;
}

/// Drives one input through every decoder surface.  Expected rejections
/// (WireError, ParseError, JsonError — all runtime_error) are fine; what
/// must never happen is a crash, a sanitizer report, or a foreign
/// exception type escaping a decoder.
void replay_everywhere(const std::string& bytes) {
  for (const std::size_t stride : {std::size_t{1}, std::size_t{7},
                                   busytime::net::kFrameHeaderBytes, std::size_t{4096},
                                   bytes.size()}) {
    FrameDecoder decoder;
    Frame frame;
    for (std::size_t off = 0; off < bytes.size();) {
      const std::size_t n = std::min(std::max<std::size_t>(stride, 1),
                                     bytes.size() - off);
      decoder.feed(bytes.data() + off, n);
      off += n;
      while (decoder.next(frame) == FrameDecoder::Status::kFrame) {}
    }
  }
  const auto wire = [&](auto probe) {
    try {
      probe(bytes);
    } catch (const WireError&) {
      // rejecting hostile bytes is the decoder doing its job
    }
  };
  wire([](const std::string& p) { from_payload<busytime::Interval>(p); });
  wire([](const std::string& p) { from_payload<busytime::Job>(p); });
  wire([](const std::string& p) { from_payload<busytime::Instance>(p); });
  wire([](const std::string& p) { from_payload<busytime::EventTrace>(p); });
  wire([](const std::string& p) { from_payload<busytime::Schedule>(p); });
  wire([](const std::string& p) { from_payload<busytime::CostBounds>(p); });
  wire([](const std::string& p) { from_payload<busytime::EngineStats>(p); });
  wire([](const std::string& p) { from_payload<busytime::SolveResult>(p); });
  wire([](const std::string& p) { from_payload<busytime::SolverSpec>(p); });
  wire([](const std::string& p) {
    from_payload<busytime::net::WireSolverInfo>(p);
  });
  const auto text = [&](auto probe) {
    try {
      probe(bytes);
    } catch (const std::runtime_error&) {
      // ParseError / JsonError / WireError all derive from runtime_error
    }
  };
  text([](const std::string& t) { busytime::instance_from_string(t); });
  text([](const std::string& t) { busytime::event_trace_from_string(t); });
  text([](const std::string& t) {
    std::istringstream is(t);
    busytime::read_schedule(is, 8);
  });
  text([](const std::string& t) { busytime::result_from_json(t); });
}

TEST(FuzzRegression, CorpusReplaysCleanlyThroughEveryDecoder) {
  const std::vector<fs::path> files = regression_files();
  ASSERT_FALSE(files.empty()) << "no regression corpus at " << regressions_dir();
  for (const fs::path& file : files) {
    SCOPED_TRACE(file.filename().string());
    replay_everywhere(slurp(file));
  }
}

// ---- targeted pins: each file must keep provoking its original defect ----

TEST(FuzzRegression, IntervalLengthOverflowIsRejected) {
  // start = INT64_MIN, completion = INT64_MAX: length() would be signed
  // overflow (UB) if the reader let this Interval through.
  const std::string bytes = slurp(regressions_dir() / "interval_length_overflow.bin");
  EXPECT_THROW(from_payload<busytime::Interval>(bytes), WireError);
}

TEST(FuzzRegression, ForgedJobCountIsRejectedBeforeAllocation) {
  // 4 294 967 295 jobs declared in an 8-byte payload: must die on the
  // count check, not in a multi-gigabyte reserve().
  const std::string bytes = slurp(regressions_dir() / "forged_job_count.bin");
  EXPECT_THROW(from_payload<busytime::Instance>(bytes), WireError);
}

TEST(FuzzRegression, ReserveOverflowCountIsRejected) {
  const std::string bytes = slurp(regressions_dir() / "reserve_overflow_count.bin");
  EXPECT_THROW(from_payload<busytime::Instance>(bytes), WireError);
}

TEST(FuzzRegression, DeepJsonNestingHitsTheDepthGuard) {
  const std::string bytes = slurp(regressions_dir() / "deep_nesting.json");
  try {
    busytime::result_from_json(bytes);
    FAIL() << "300-deep array parsed without error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting"), std::string::npos)
        << "expected the depth guard, got: " << e.what();
  }
}

TEST(FuzzRegression, BadMagicPoisonsTheDecoder) {
  const std::string bytes = slurp(regressions_dir() / "bad_magic_frame.bin");
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_EQ(decoder.error_code(), busytime::net::WireErrorCode::kBadMagic);
}

TEST(FuzzRegression, OversizedFramePoisonsTheDecoder) {
  const std::string bytes = slurp(regressions_dir() / "oversized_frame.bin");
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_EQ(decoder.error_code(),
            busytime::net::WireErrorCode::kOversizedFrame);
}

TEST(FuzzRegression, TrailingPayloadBytesAreRejected) {
  const std::string bytes = slurp(regressions_dir() / "trailing_bytes.bin");
  EXPECT_THROW(from_payload<busytime::Interval>(bytes), WireError);
}

TEST(FuzzRegression, CancelRecordWithBadJobIdIsRejected) {
  const std::string bytes = slurp(regressions_dir() / "cancel_bad_job_id.bin");
  EXPECT_THROW(from_payload<busytime::EventTrace>(bytes), WireError);
}

/// Decoding the regression file `name` as T must fail with a WireError
/// whose message contains `what`: the check the file pins, not an earlier
/// one.
template <typename T>
void expect_rejected_by(const char* name, const std::string& what) {
  try {
    from_payload<T>(slurp(regressions_dir() / name));
    ADD_FAILURE() << name << " decoded without error";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << name << ": expected \"" << what << "\", got: " << e.what();
  }
}

TEST(FuzzRegression, ZeroLengthAndZeroDemandJobsFailTheirOwnChecks) {
  expect_rejected_by<busytime::Job>("zero_length_job.bin", "non-positive length");
  expect_rejected_by<busytime::Job>("zero_demand_job.bin", "demand must be >= 1");
}

TEST(FuzzRegression, ForgedComponentTraceCountIsRejectedBeforeAllocation) {
  // 1000 traces declared with 1000 bytes left: must die on the count
  // check, not after reserving 1000 in-memory ComponentTraces.
  expect_rejected_by<busytime::SolveResult>("forged_component_trace_count.bin",
                                            "forged element count");
}

TEST(FuzzRegression, OutOfDomainSpecOptionsAreRejectedByName) {
  // Each option passes the wire reader only inside the domain set() allows.
  expect_rejected_by<busytime::SolverSpec>("nan_deadline_spec.bin", "'deadline_ms'");
  expect_rejected_by<busytime::SolverSpec>("threads_out_of_range_spec.bin", "'threads'");
}

TEST(FuzzRegression, FrameSplitAtThePayloadBoundaryReassembles) {
  // The first read ends exactly where the header does: the payload then
  // arrives into a buffer of its own and comes out whole.
  const std::string bytes = slurp(regressions_dir() / "split_at_payload_boundary.bin");
  ASSERT_GT(bytes.size(), busytime::net::kFrameHeaderBytes);
  FrameDecoder decoder;
  Frame frame;
  decoder.feed(bytes.substr(0, busytime::net::kFrameHeaderBytes));
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());
  decoder.feed(bytes.substr(busytime::net::kFrameHeaderBytes));
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, busytime::net::MsgType::kLoadInstance);
  EXPECT_EQ(frame.payload, bytes.substr(busytime::net::kFrameHeaderBytes));
  EXPECT_EQ(from_payload<busytime::Instance>(frame.payload).size(), 3u);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FuzzRegression, TwoFramesInOneSliceComeOutInOrder) {
  const std::string bytes = slurp(regressions_dir() / "two_frames_one_slice.bin");
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, busytime::net::MsgType::kLoadInstance);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, busytime::net::MsgType::kPing);
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(FuzzRegression, LastOfAThousandJobsWithZeroLengthIsRejected) {
  expect_rejected_by<busytime::Instance>("last_job_zero_length.bin",
                                         "job has non-positive length");
}

// ---- seed health: the committed good seeds must stay decodable, so the
// ---- fuzzers start from live coverage, not stale bytes -------------------

TEST(FuzzRegression, FrameDecoderSeedsStillDecode) {
  const fs::path dir = fs::path(BUSYTIME_FUZZ_CORPUS_DIR) / "frame_decoder";
  std::size_t frames = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    SCOPED_TRACE(entry.path().filename().string());
    const std::string bytes = slurp(entry.path());
    ASSERT_FALSE(bytes.empty());
    FrameDecoder decoder;
    decoder.feed(bytes.substr(1));  // past the harness's selector byte
    Frame frame;
    while (decoder.next(frame) == FrameDecoder::Status::kFrame) ++frames;
    EXPECT_FALSE(decoder.poisoned());
  }
  EXPECT_GE(frames, 5u) << "frame seeds no longer parse";
}

TEST(FuzzRegression, WirePayloadSeedsStillDecode) {
  const fs::path dir = fs::path(BUSYTIME_FUZZ_CORPUS_DIR) / "wire_payloads";
  for (const auto& entry : fs::directory_iterator(dir)) {
    SCOPED_TRACE(entry.path().filename().string());
    const std::string bytes = slurp(entry.path());
    ASSERT_FALSE(bytes.empty());
    const std::string payload = bytes.substr(1);
    switch (static_cast<unsigned char>(bytes[0]) % 10) {
      case 0: EXPECT_NO_THROW(from_payload<busytime::Interval>(payload)); break;
      case 1: EXPECT_NO_THROW(from_payload<busytime::Job>(payload)); break;
      case 2: EXPECT_NO_THROW(from_payload<busytime::Instance>(payload)); break;
      case 3: EXPECT_NO_THROW(from_payload<busytime::EventTrace>(payload)); break;
      case 4: EXPECT_NO_THROW(from_payload<busytime::Schedule>(payload)); break;
      case 9:
        EXPECT_NO_THROW(from_payload<busytime::net::WireSolverInfo>(payload));
        break;
      default: break;  // selector values the seed set does not use yet
    }
  }
}

TEST(FuzzRegression, ScheduleMachineIdPastTheJobCountIsRejected) {
  // assign 0 100000000 for one of 8 jobs: the reader must reject the id,
  // not hand `check` a schedule whose machine count sizes its arrays.
  const std::string bytes =
      slurp(regressions_dir() / "schedule_machine_id_past_job_count.txt");
  std::istringstream is(bytes);
  EXPECT_THROW(busytime::read_schedule(is, 8), busytime::ParseError);
}

TEST(FuzzRegression, TextReaderSeedsStillParse) {
  const fs::path dir = fs::path(BUSYTIME_FUZZ_CORPUS_DIR) / "text_readers";
  for (const auto& entry : fs::directory_iterator(dir)) {
    SCOPED_TRACE(entry.path().filename().string());
    const std::string bytes = slurp(entry.path());
    ASSERT_FALSE(bytes.empty());
    const std::string doc = bytes.substr(1);
    switch (static_cast<unsigned char>(bytes[0]) % 4) {
      case 0: EXPECT_NO_THROW(busytime::instance_from_string(doc)); break;
      case 1: EXPECT_NO_THROW(busytime::event_trace_from_string(doc)); break;
      case 2: {
        std::istringstream is(doc);
        EXPECT_NO_THROW(busytime::read_schedule(is, 3));
        break;
      }
      case 3: EXPECT_NO_THROW(busytime::result_from_json(doc)); break;
    }
  }
}

}  // namespace
