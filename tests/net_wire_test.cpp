// busytime-wire-v1 serialization: binary round trips must be lossless and
// bit-exact against the v1 text serializers for every instance family and
// golden file, SolveResult must survive the wire with every PR-4 cancel
// counter and the PR-5 status / ignored_options fields intact, and
// malformed payloads must fail with WireError — never UB, never an
// invariant-breaking object.  The NetWire suite is a ThreadSanitizer CI
// target (serialization is reactor-adjacent code).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "io/serialize.hpp"
#include "net/binstream.hpp"
#include "net/protocol.hpp"
#include "util/fields.hpp"
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

// ----------------------------------------------------------- layout pins

std::string hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out += kDigits[static_cast<unsigned char>(c) >> 4];
    out += kDigits[static_cast<unsigned char>(c) & 15];
  }
  return out;
}

EngineStats counting_stats() {
  EngineStats s;
  s.jobs_assigned = 1;
  s.machines_opened = 2;
  s.machines_closed = 3;
  s.open_machines = 4;
  s.peak_open_machines = 5;
  s.active_jobs = 6;
  s.peak_active_jobs = 7;
  s.jobs_cancelled = 8;
  s.jobs_preempted = 9;
  s.cancels_ignored = 10;
  s.slots_recycled = 11;
  s.busy_time_refunded = 12;
  s.clock = 13;
  s.online_cost = 14;
  return s;
}

SolveResult every_field_set() {
  SolveResult r;
  r.solver = "auto";
  r.status = SolveStatus::kDeadline;
  r.schedule = Schedule({0, 1, Schedule::kUnscheduled, 2});
  r.cost = 123;
  r.throughput = 3;
  r.bounds = CostBounds{100, 50, 200, 4};
  r.ratio_to_lower_bound = 1.25;
  r.valid = true;
  r.trace = {{3, "first_fit"}};
  r.stats = counting_stats();
  r.wall_ms = 0.5;
  r.ignored_options = {"epoch"};
  r.cached = true;
  return r;
}

TEST(NetWire, FieldListLayoutsArePinned) {
  // Each record's fields all differ, so a reordered or retyped field list
  // changes these bytes.  They were captured from the hand-written
  // per-type codecs that the field lists replaced.
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
  EXPECT_EQ(hex(to_payload(spec)),
            "0c00000065706f63685f68796272696407000000d20400000000000000020000"
            "0000000063000000cefaedfe0000000001030000000000000000c04640");
  EXPECT_EQ(hex(to_payload(counting_stats())),
            "0100000000000000020000000000000003000000000000000400000000000000"
            "0500000000000000060000000000000007000000000000000800000000000000"
            "09000000000000000a000000000000000b000000000000000c00000000000000"
            "0d000000000000000e00000000000000");
  EXPECT_EQ(hex(to_payload(CostBounds{100, 50, 200, 4})),
            "64000000000000003200000000000000c80000000000000004000000");
  EXPECT_EQ(hex(to_payload(ComponentTrace{3, "first_fit"})),
            "03000000000000000900000066697273745f666974");
  EXPECT_EQ(hex(to_payload(CancelRecord{7, 42, true})), "070000002a0000000000000001");
  net::WireSolverInfo info;
  info.name = "first_fit";
  info.kind = "heuristic";
  info.optimality = "4-approx";
  info.ratio = 4.0;
  info.needs_budget = true;
  info.description = "arrival-order first fit";
  EXPECT_EQ(hex(to_payload(info)),
            "0900000066697273745f6669740900000068657572697374696308000000342d"
            "617070726f78000000000000104001170000006172726976616c2d6f72646572"
            "20666972737420666974");
  EXPECT_EQ(hex(to_payload(every_field_set())),
            "040000006175746f01040000000000000001000000ffffffff020000007b0000"
            "0000000000030000000000000064000000000000003200000000000000c80000"
            "000000000004000000000000000000f43f010100000003000000000000000900"
            "000066697273745f666974010000000000000002000000000000000300000000"
            "0000000400000000000000050000000000000006000000000000000700000000"
            "000000080000000000000009000000000000000a000000000000000b00000000"
            "0000000c000000000000000d000000000000000e000000000000000000000000"
            "00e03f010000000500000065706f636801");
}

TEST(NetWire, FrameBuilderEqualsEncodeFrameOfThePayload) {
  std::vector<Job> jobs = {Job(0, 10), Job(5, 12), Job(8, 20, 3)};
  jobs[2].demand = 2;
  const Instance inst(jobs, 2);
  const std::string load = net::frame_of(net::MsgType::kLoadInstance, inst);
  EXPECT_EQ(load, net::encode_frame(net::MsgType::kLoadInstance, to_payload(inst)));
  EXPECT_EQ(hex(load),
            "315754420268000000020000000300000000000000000000000a000000000000"
            "000100000000000000010000000000000005000000000000000c000000000000"
            "0001000000000000000100000000000000080000000000000014000000000000"
            "0003000000000000000200000000000000");
  const SolveResult result = every_field_set();
  EXPECT_EQ(net::frame_of(net::MsgType::kResult, result),
            net::encode_frame(net::MsgType::kResult, to_payload(result)));
  // Several body values travel back to back, as one payload.
  ibinstream body;
  body << std::uint64_t{7} << SolverSpec::parse("auto");
  EXPECT_EQ(net::frame_of(net::MsgType::kSolve, std::uint64_t{7}, SolverSpec::parse("auto")),
            net::encode_frame(net::MsgType::kSolve, body.buffer()));
  EXPECT_EQ(net::frame_of(net::MsgType::kPing), net::encode_frame(net::MsgType::kPing));
}

TEST(NetWire, JobVectorBlockEqualsItsRecords) {
  // The block copy writes what the per-record writer writes.
  const Instance inst = family_instance("trace");
  ibinstream records;
  records << static_cast<std::uint32_t>(inst.size());
  for (const Job& job : inst.jobs()) records << job;
  EXPECT_EQ(to_payload(inst.jobs()), records.buffer());
  EXPECT_EQ(from_payload<std::vector<Job>>(records.buffer()), inst.jobs());
}

TEST(NetWire, SolveResultMayOmitOnlyItsTrailingCachedByte) {
  const std::string payload = to_payload(every_field_set());
  // A peer from before the result cache stops before `cached`.
  const std::string old_peer = payload.substr(0, payload.size() - 1);
  const SolveResult back = from_payload<SolveResult>(old_peer);
  EXPECT_FALSE(back.cached);
  EXPECT_EQ(to_payload(back), old_peer + '\0');
  // Any shorter payload is truncated, not old.
  EXPECT_THROW(from_payload<SolveResult>(payload.substr(0, payload.size() - 2)),
               WireError);
}

TEST(NetWire, EveryDecodedSpecParsesBackFromItsText) {
  // Random specs, in and out of every option's domain: whatever the wire
  // reader accepts must print a to_string() that parses back to it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> names = {"auto", "epoch_hybrid", "",
                                          "a:b", "x,y=z", "two words"};
  const std::vector<int> gs = {0, 1, 7, -1, INT_MAX, INT_MIN};
  const std::vector<Time> budgets = {-1, 0, 1234, -2, INT64_MAX, INT64_MIN};
  const std::vector<Time> epochs = {1024, 1, 0, -5, INT64_MAX};
  const std::vector<int> batches = {4096, 1, 0, -1, INT_MAX};
  const std::vector<std::uint64_t> seeds = {1, 0, UINT64_MAX, 1ull << 63};
  const std::vector<int> threads = {1, 0, 256, 257, -1};
  const std::vector<double> deadlines = {
      0, -0.0, 1e-6, 0.1, 45.5, 1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::denorm_min(), 1e-310, nan, inf, -1};
  std::mt19937_64 rng(16);
  const auto pick = [&rng](const auto& pool) { return pool[rng() % pool.size()]; };
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    SolverSpec spec;
    spec.name = pick(names);
    spec.options.g = pick(gs);
    spec.options.budget = pick(budgets);
    spec.options.epoch_length = pick(epochs);
    spec.options.max_batch = pick(batches);
    spec.options.seed = pick(seeds);
    spec.options.improve = rng() % 2 == 1;
    spec.options.threads = pick(threads);
    spec.options.deadline_ms = pick(deadlines);
    if (rng() % 2 == 0) {  // any non-negative double, subnormals included
      const std::uint64_t bits = rng() >> 1;
      std::memcpy(&spec.options.deadline_ms, &bits, sizeof(bits));
    }
    SolverSpec decoded;
    try {
      decoded = from_payload<SolverSpec>(to_payload(spec));
    } catch (const WireError&) {
      continue;
    }
    ++accepted;
    const std::string text = decoded.to_string();
    SolverSpec reparsed;
    ASSERT_NO_THROW(reparsed = SolverSpec::parse(text)) << text;
    EXPECT_EQ(reparsed.name, decoded.name) << text;
    EXPECT_TRUE(util::fields_equal(reparsed.options, decoded.options)) << text;
    EXPECT_EQ(reparsed.to_string(), text);
  }
  EXPECT_GT(accepted, 500);
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
  m << std::uint32_t{0xFFFFFFFFu};  // 4 billion jobs in a 4-byte payload
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
  m << std::uint32_t{1000};
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
  // The floors, summed from the field lists, are exact: the smallest real
  // element still decodes.
  EXPECT_EQ(net::WireMinBytes<ComponentTrace>::value, 12u);
  EXPECT_EQ(net::WireMinBytes<net::WireSolverInfo>::value, 25u);
  EXPECT_EQ(net::WireMinBytes<CancelRecord>::value, 13u);
  EXPECT_EQ(to_payload(std::vector<ComponentTrace>(1)).size(), 4u + 12u);
  EXPECT_EQ(to_payload(std::vector<net::WireSolverInfo>(1)).size(), 4u + 25u);
  EXPECT_EQ(to_payload(std::vector<CancelRecord>(1)).size(), 4u + 13u);
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
    m << std::uint8_t{2};
    expect_wire_error<bool>(m.buffer(), "bool byte must be 0 or 1");
  }
  {  // unknown SolveStatus byte
    ibinstream m;
    m << std::uint8_t{250};
    expect_wire_error<SolveStatus>(m.buffer(), "unknown SolveStatus");
  }
  {  // empty solver name
    ibinstream m;
    m << std::string() << SolverOptions{};
    expect_wire_error<SolverSpec>(m.buffer(), "empty name");
  }
  // One SolverSpec per option rule of SolverOptions::check(); each must be
  // rejected on arrival, naming the option.
  using Edit = void (*)(SolverOptions&);
  const std::pair<const char*, Edit> option_cases[] = {
      {"'deadline_ms'", [](SolverOptions& o) { o.deadline_ms = std::nan(""); }},
      {"'deadline_ms'",
       [](SolverOptions& o) { o.deadline_ms = std::numeric_limits<double>::infinity(); }},
      {"'deadline_ms'", [](SolverOptions& o) { o.deadline_ms = -1; }},
      {"'threads'", [](SolverOptions& o) { o.threads = -1; }},
      {"'threads'", [](SolverOptions& o) { o.threads = 257; }},
      {"'max_batch'", [](SolverOptions& o) { o.max_batch = 0; }},
      {"'epoch'", [](SolverOptions& o) { o.epoch_length = 0; }},
      {"'g'", [](SolverOptions& o) { o.g = -1; }},
      {"'budget'", [](SolverOptions& o) { o.budget = -2; }},
  };
  for (const auto& [option, edit] : option_cases) {
    SolverSpec spec;
    edit(spec.options);
    expect_wire_error<SolverSpec>(to_payload(spec), option);
  }
  {  // a name whose ':' would split it on reparse
    SolverSpec spec;
    spec.name = "auto:g=2";
    expect_wire_error<SolverSpec>(to_payload(spec), "option separator");
  }
}


TEST(NetWire, BlockJobDecoderReportsTheFirstBadRecord) {
  // One bad record at the front, in the middle or last of 1,000 good ones
  // fails with the message the single-Job reader gives for it; a record
  // with two faults reports the one read first.
  struct Bad {
    Job job;
    const char* message;
  };
  const auto job = [](Time start, Time completion, std::int64_t demand) {
    Job j;
    j.interval.start = start;
    j.interval.completion = completion;
    j.demand = demand;
    return j;
  };
  const Bad cases[] = {
      {job(10, 10, 1), "job has non-positive length"},
      {job(10, 5, 1), "interval completion precedes start"},
      {job(0, 10, 0), "job demand must be >= 1"},
      {job(std::numeric_limits<Time>::min(), std::numeric_limits<Time>::max(), 1),
       "interval length overflows the time type"},
      {job(10, 5, 0), "interval completion precedes start"},
      {job(10, 10, 0), "job has non-positive length"},
  };
  std::vector<Job> good;
  for (int i = 0; i < 1000; ++i) good.emplace_back(i, i + 1 + i % 7);
  for (const Bad& bad : cases) {
    ibinstream single;
    single << bad.job;
    try {
      from_payload<Job>(single.buffer());
      ADD_FAILURE() << "single record decoded: " << bad.message;
    } catch (const WireError& e) {
      EXPECT_EQ(std::string(e.what()), bad.message);
    }
    for (const std::size_t at : {std::size_t{0}, std::size_t{500}, std::size_t{999}}) {
      std::vector<Job> jobs = good;
      jobs[at] = bad.job;
      if (at < 999) jobs[999] = job(0, 10, 0);  // a later fault never wins
      ibinstream m;
      m << std::int32_t{3} << jobs;
      try {
        from_payload<Instance>(m.buffer());
        ADD_FAILURE() << "decoded with a bad record at " << at;
      } catch (const WireError& e) {
        EXPECT_EQ(std::string(e.what()), bad.message) << "record " << at;
      }
    }
  }
  // A count one past the records, and one no payload can hold, fail on the
  // count before the reserve.
  ibinstream short_by_one;
  short_by_one << std::int32_t{3} << std::uint32_t{1001};
  for (const Job& j : good) short_by_one << j;
  expect_wire_error<Instance>(short_by_one.buffer(), "forged element count 1001");
  ibinstream huge;
  huge << std::int32_t{3} << std::uint32_t{0xFFFFFFFFu} << good[0];
  expect_wire_error<Instance>(huge.buffer(), "forged element count 4294967295");
}

}  // namespace
}  // namespace busytime
