// busytime-wire-v1 serialization: binary round trips must be lossless and
// bit-exact against the v1 text serializers for every instance family and
// golden file, SolveResult must survive the wire with every PR-4 cancel
// counter and the PR-5 status / ignored_options fields intact, and
// malformed payloads must fail with WireError — never UB, never an
// invariant-breaking object.  The NetWire suite is a ThreadSanitizer CI
// target (serialization is reactor-adjacent code).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "io/serialize.hpp"
#include "net/binstream.hpp"
#include "net/protocol.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"

namespace busytime {
namespace {

using net::from_payload;
using net::ibinstream;
using net::obinstream;
using net::to_payload;
using net::WireError;

Instance family_instance(const std::string& family) {
  GenParams p;
  p.n = 48;
  p.g = 3;
  p.seed = 21;
  if (family == "general") return gen_general(p);
  if (family == "clique") return gen_clique(p);
  if (family == "proper") return gen_proper(p);
  if (family == "proper_clique") return gen_proper_clique(p);
  if (family == "one_sided") return gen_one_sided(p);
  TraceParams t;
  t.n = p.n;
  t.g = p.g;
  t.seed = p.seed;
  return gen_trace(t);
}

const std::vector<std::string>& families() {
  static const std::vector<std::string> kFamilies = {
      "general", "clique", "proper", "proper_clique", "one_sided", "trace"};
  return kFamilies;
}

void expect_instances_equal(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.g(), b.g());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].interval.start, b.jobs()[i].interval.start);
    EXPECT_EQ(a.jobs()[i].interval.completion, b.jobs()[i].interval.completion);
    EXPECT_EQ(a.jobs()[i].weight, b.jobs()[i].weight);
    EXPECT_EQ(a.jobs()[i].demand, b.jobs()[i].demand);
  }
}

// ------------------------------------------------------------- primitives

TEST(NetWire, PrimitiveRoundTripsAreLittleEndianAndExact) {
  ibinstream m;
  m << std::uint8_t{0xAB} << std::uint16_t{0xBEEF} << std::uint32_t{0xDEADBEEF}
    << std::uint64_t{0x0123456789ABCDEFull} << std::int32_t{-7}
    << std::int64_t{-123456789012345678} << -2.5 << true << false
    << std::string("busytime");
  // The layout, byte for byte, not just the round trip: the word-at-a-time
  // codec must write the v1 little-endian image on any host.
  const unsigned char expected[] = {
      0xAB,                                            // u8
      0xEF, 0xBE,                                      // u16 0xBEEF
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32 0xDEADBEEF
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0xF9, 0xFF, 0xFF, 0xFF,                          // i32 -7
      0xB2, 0x0C, 0xCF, 0x59, 0xB4, 0x64, 0x49, 0xFE,  // i64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xC0,  // double -2.5
      0x01, 0x00,                                      // true, false
      0x08, 0x00, 0x00, 0x00,                          // string length
      'b',  'u',  's',  'y',  't',  'i',  'm',  'e'};
  ASSERT_EQ(m.size(), sizeof(expected));
  for (std::size_t i = 0; i < sizeof(expected); ++i)
    EXPECT_EQ(static_cast<unsigned char>(m.buffer()[i]), expected[i]) << "byte " << i;

  obinstream r(m.buffer());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::int32_t i32 = 0;
  std::int64_t i64 = 0;
  double d = 0;
  bool t = false, f = true;
  std::string s;
  r >> u8 >> u16 >> u32 >> u64 >> i32 >> i64 >> d >> t >> f >> s;
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i32, -7);
  EXPECT_EQ(i64, -123456789012345678);
  EXPECT_EQ(d, -2.5);
  EXPECT_TRUE(t);
  EXPECT_FALSE(f);
  EXPECT_EQ(s, "busytime");
  EXPECT_TRUE(r.done());

  // One Job record: start, completion, weight, demand as four i64 words.
  Job job(-5, 300, 7);
  job.demand = 2;
  const std::string record = to_payload(job);
  const unsigned char expected_job[] = {
      0xFB, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // start -5
      0x2C, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // completion 300
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // weight 7
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};  // demand 2
  ASSERT_EQ(record.size(), sizeof(expected_job));
  for (std::size_t i = 0; i < sizeof(expected_job); ++i)
    EXPECT_EQ(static_cast<unsigned char>(record[i]), expected_job[i]) << "job byte " << i;
  EXPECT_EQ(from_payload<Job>(record), job);
}

TEST(NetWire, DoublesRoundTripBitExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           -1435.3333333333333,
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    const double back = from_payload<double>(to_payload(v));
    std::uint64_t before = 0, after = 0;
    std::memcpy(&before, &v, sizeof(before));
    std::memcpy(&after, &back, sizeof(after));
    EXPECT_EQ(before, after) << v;
  }
  const double nan = from_payload<double>(
      to_payload(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(std::isnan(nan));
}

TEST(NetWire, VectorsAndOptionalsCompose) {
  const std::vector<std::string> words = {"", "a", "bb", "ccc"};
  EXPECT_EQ(from_payload<std::vector<std::string>>(to_payload(words)), words);

  std::optional<std::int64_t> some = -42, none;
  EXPECT_EQ(from_payload<std::optional<std::int64_t>>(to_payload(some)), some);
  EXPECT_EQ(from_payload<std::optional<std::int64_t>>(to_payload(none)), none);
}

// ----------------------------------------------- text -> binary agreement

TEST(NetWire, EveryFamilyTextThenBinaryRoundTripsLosslessly) {
  for (const std::string& family : families()) {
    SCOPED_TRACE(family);
    const Instance original = family_instance(family);
    // text -> struct: the v1 text container is the reference serializer.
    const Instance from_text = instance_from_string(instance_to_string(original));
    expect_instances_equal(original, from_text);
    // struct -> binary -> struct must agree with the text-parsed struct and
    // re-encode to the same bytes (bit-exact wire).
    const std::string payload = to_payload(from_text);
    const Instance from_binary = from_payload<Instance>(payload);
    expect_instances_equal(from_text, from_binary);
    EXPECT_EQ(to_payload(from_binary), payload);
  }
}

TEST(NetWire, GoldenFilesRoundTripThroughTheWire) {
  const std::string dir = BUSYTIME_TEST_DATA_DIR;
  const char* const kGoldenFiles[] = {
      "golden_general.txt",       "golden_clique.txt",
      "golden_proper.txt",        "golden_proper_clique.txt",
      "golden_one_sided.txt",     "golden_trace.txt",
      "golden_cancel_trace.txt"};
  for (const char* name : kGoldenFiles) {
    SCOPED_TRACE(name);
    const EventTrace golden = load_event_trace(dir + "/" + name);
    const EventTrace text_back =
        event_trace_from_string(event_trace_to_string(golden));
    const std::string payload = to_payload(text_back);
    const EventTrace wire_back = from_payload<EventTrace>(payload);
    expect_instances_equal(golden.base(), wire_back.base());
    ASSERT_EQ(golden.cancels().size(), wire_back.cancels().size());
    for (std::size_t i = 0; i < golden.cancels().size(); ++i) {
      EXPECT_EQ(golden.cancels()[i].job, wire_back.cancels()[i].job);
      EXPECT_EQ(golden.cancels()[i].at, wire_back.cancels()[i].at);
      EXPECT_EQ(golden.cancels()[i].preempt, wire_back.cancels()[i].preempt);
    }
    EXPECT_EQ(to_payload(wire_back), payload);
  }
}

TEST(NetWire, EventTraceWithCancelsKeepsResidualSemantics) {
  CancelParams cp;
  cp.cancel_rate = 0.4;
  cp.preempt_fraction = 0.5;
  cp.seed = 9;
  const EventTrace trace =
      with_random_cancels(family_instance("general"), cp);
  ASSERT_TRUE(trace.has_cancels());
  const EventTrace back = from_payload<EventTrace>(to_payload(trace));
  // Canonicalization is idempotent, so the receiver's record set — and the
  // residual workload solves run against — matches the sender's exactly.
  ASSERT_EQ(back.cancels().size(), trace.cancels().size());
  expect_instances_equal(trace.residual(), back.residual());
}

// ------------------------------------------------------------ SolveResult

TEST(NetWire, SolveResultSurvivesTheWireWithCancelCountersAndStatus) {
  CancelParams cp;
  cp.cancel_rate = 0.5;
  cp.preempt_fraction = 0.5;
  cp.seed = 4;
  const EventTrace trace = with_random_cancels(family_instance("general"), cp);
  SolverSpec spec;
  spec.name = "online_first_fit";
  // A non-default option online_first_fit never reads, so the PR-5
  // ignored_options field travels non-empty.
  spec.options.set("epoch", "256");
  const SolveResult result = run_solver(trace, spec);
  ASSERT_GT(result.stats.jobs_cancelled + result.stats.jobs_preempted, 0u);
  ASSERT_FALSE(result.ignored_options.empty());

  const std::string payload = to_payload(result);
  const SolveResult back = from_payload<SolveResult>(payload);

  EXPECT_EQ(back.solver, result.solver);
  EXPECT_EQ(back.status, result.status);
  EXPECT_EQ(back.schedule.assignment(), result.schedule.assignment());
  EXPECT_EQ(back.cost, result.cost);
  EXPECT_EQ(back.throughput, result.throughput);
  EXPECT_EQ(back.valid, result.valid);
  EXPECT_EQ(back.ignored_options, result.ignored_options);
  // The five PR-4 cancellation counters, individually.
  EXPECT_EQ(back.stats.jobs_cancelled, result.stats.jobs_cancelled);
  EXPECT_EQ(back.stats.jobs_preempted, result.stats.jobs_preempted);
  EXPECT_EQ(back.stats.cancels_ignored, result.stats.cancels_ignored);
  EXPECT_EQ(back.stats.slots_recycled, result.stats.slots_recycled);
  EXPECT_EQ(back.stats.busy_time_refunded, result.stats.busy_time_refunded);
  // And the whole document, bit-exactly.
  EXPECT_EQ(to_payload(back), payload);
}

TEST(NetWire, SolveResultNonOkStatusAndTraceRoundTrip) {
  SolveResult result;
  result.solver = "auto";
  result.status = SolveStatus::kDeadline;
  result.schedule = Schedule({0, 1, Schedule::kUnscheduled, 2});
  result.cost = 123;
  result.throughput = 3;
  result.bounds = CostBounds{100, 50, 200, 4};
  result.ratio_to_lower_bound = 1.23;
  result.valid = false;
  result.trace = {{3, "first_fit"}, {1, "one_sided"}};
  result.stats.jobs_assigned = 3;
  result.stats.busy_time_refunded = 17;
  result.wall_ms = 0.25;
  result.ignored_options = {"epoch", "max_batch"};

  const SolveResult back = from_payload<SolveResult>(to_payload(result));
  EXPECT_EQ(back.status, SolveStatus::kDeadline);
  EXPECT_FALSE(back.valid);
  ASSERT_EQ(back.trace.size(), 2u);
  EXPECT_EQ(back.trace[0].jobs, 3u);
  EXPECT_EQ(back.trace[0].algo, "first_fit");
  EXPECT_EQ(back.schedule.assignment(),
            (std::vector<MachineId>{0, 1, Schedule::kUnscheduled, 2}));
  EXPECT_EQ(to_payload(back), to_payload(result));
}

TEST(NetWire, SolverSpecCarriesEveryOptionField) {
  SolverSpec spec;
  spec.name = "epoch_hybrid";
  spec.options.g = 7;
  spec.options.budget = 1234;
  spec.options.epoch_length = 512;
  spec.options.max_batch = 99;
  spec.options.seed = 0xFEEDFACE;
  spec.options.improve = true;
  spec.options.threads = 3;
  spec.options.deadline_ms = 45.5;

  const SolverSpec back = from_payload<SolverSpec>(to_payload(spec));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.options.g, 7);
  EXPECT_EQ(back.options.budget, 1234);
  EXPECT_EQ(back.options.epoch_length, 512);
  EXPECT_EQ(back.options.max_batch, 99);
  EXPECT_EQ(back.options.seed, 0xFEEDFACEu);
  EXPECT_TRUE(back.options.improve);
  EXPECT_EQ(back.options.threads, 3);
  EXPECT_EQ(back.options.deadline_ms, 45.5);
}

// -------------------------------------------------------------- defensive

TEST(NetWire, TruncatedPayloadsThrowWireError) {
  const std::string payload = to_payload(family_instance("general"));
  for (const std::size_t keep : {std::size_t{0}, std::size_t{3},
                                 payload.size() / 2, payload.size() - 1}) {
    EXPECT_THROW(from_payload<Instance>(payload.substr(0, keep)), WireError)
        << "kept " << keep << " of " << payload.size();
  }
}

TEST(NetWire, TrailingBytesAreRejected) {
  std::string payload = to_payload(family_instance("clique"));
  payload += '\0';
  EXPECT_THROW(from_payload<Instance>(payload), WireError);
}

TEST(NetWire, ForgedVectorCountFailsBeforeAllocating) {
  ibinstream m;
  m.write_u32(0xFFFFFFFFu);  // 4 billion jobs in a 4-byte payload
  EXPECT_THROW(from_payload<std::vector<Job>>(m.buffer()), WireError);
}

/// Decoding `payload` as T must fail with a WireError naming `what`.
template <typename T>
void expect_wire_error(const std::string& payload, const std::string& what) {
  try {
    from_payload<T>(payload);
    ADD_FAILURE() << "decoded without error; expected \"" << what << "\"";
  } catch (const WireError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "expected \"" << what << "\", got: " << e.what();
  }
}

/// A u32 count of 1000 followed by 1000 bytes: enough for 1000 elements of
/// one byte, too few for 1000 of the real minimum.
std::string forged_count_of_1000() {
  ibinstream m;
  m.write_u32(1000);
  m.raw(std::string(1000, '\0').data(), 1000);
  return m.take();
}

TEST(NetWire, ForgedCountsOfVariableSizeElementsFailBeforeAllocating) {
  // The count floor of each element type is its true minimum encoding, so
  // the count is rejected before the reserve (1000 ComponentTraces are
  // 40 KB in memory) instead of failing later as "truncated".
  const std::string forged = forged_count_of_1000();
  expect_wire_error<std::vector<ComponentTrace>>(forged, "forged element count");
  expect_wire_error<std::vector<net::WireSolverInfo>>(forged,
                                                      "forged element count");
  // The same count as a result's trace, as a hostile server sends it.
  ibinstream m;
  m << std::string("auto") << SolveStatus::kOk << Schedule{} << Time{0}
    << std::int64_t{0} << CostBounds{} << 0.0 << true;
  m.raw(forged.data(), forged.size());
  expect_wire_error<SolveResult>(m.buffer(), "forged element count");
  // The floors are exact: the smallest real element still decodes.
  EXPECT_EQ(to_payload(std::vector<ComponentTrace>(1)).size(), 4u + 12u);
  EXPECT_EQ(to_payload(std::vector<net::WireSolverInfo>(1)).size(), 4u + 25u);
  EXPECT_EQ(from_payload<std::vector<ComponentTrace>>(
                to_payload(std::vector<ComponentTrace>(3))).size(), 3u);
}

TEST(NetWire, InvariantViolatingPayloadsAreRejected) {
  // Full 32-byte Job records, so each fails on its invariant, not on a
  // short read.
  const auto job_record = [](std::int64_t start, std::int64_t completion,
                             std::int64_t demand) {
    ibinstream m;
    m << start << completion << std::int64_t{1} << demand;
    EXPECT_EQ(m.size(), 32u);
    return m.take();
  };
  expect_wire_error<Job>(job_record(10, 10, 1), "non-positive length");
  expect_wire_error<Job>(job_record(10, 5, 1), "completion precedes start");
  expect_wire_error<Job>(job_record(0, 10, 0), "demand must be >= 1");
  {  // instance with g = 0
    ibinstream m;
    m << std::int32_t{0} << std::vector<Job>{};
    expect_wire_error<Instance>(m.buffer(), "g must be >= 1");
  }
  {  // cancel record naming an out-of-range job
    Instance base = family_instance("one_sided");
    ibinstream m;
    m << base << std::vector<CancelRecord>{
        {static_cast<JobId>(base.size() + 5), 0, false}};
    expect_wire_error<EventTrace>(m.buffer(), "cancel record names job");
  }
  {  // bool encoded as 2
    ibinstream m;
    m.write_u8(2);
    expect_wire_error<bool>(m.buffer(), "bool byte must be 0 or 1");
  }
  {  // unknown SolveStatus byte
    ibinstream m;
    m.write_u8(250);
    expect_wire_error<SolveStatus>(m.buffer(), "unknown SolveStatus");
  }
  {  // empty solver name
    ibinstream m;
    m << std::string() << SolverOptions{};
    expect_wire_error<SolverSpec>(m.buffer(), "empty name");
  }
}

}  // namespace
}  // namespace busytime
