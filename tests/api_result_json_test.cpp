// SolveResult JSON round trip (io/serialize) and the minimal JSON document
// model behind it (io/json), including the golden-file contract the CLI and
// CI smoke jobs rely on.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "api/registry.hpp"
#include "io/json.hpp"
#include "io/serialize.hpp"

namespace busytime {
namespace {

// ------------------------------------------------------------- json model --

TEST(Json, ScalarsRoundTrip) {
  EXPECT_EQ(json::Value::parse("null").type(), json::Value::Type::kNull);
  EXPECT_EQ(json::Value::parse("true").as_bool(), true);
  EXPECT_EQ(json::Value::parse("false").as_bool(), false);
  EXPECT_EQ(json::Value::parse("-42").as_int(), -42);
  EXPECT_EQ(json::Value::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_DOUBLE_EQ(json::Value::parse("1.25e2").as_double(), 125.0);
  EXPECT_EQ(json::Value::parse("\"a\\nb\\\"c\\u0041\"").as_string(), "a\nb\"cA");
}

TEST(Json, ContainersPreserveOrderAndDump) {
  json::Value obj = json::Value::object();
  obj.set("z", 1);
  obj.set("a", json::Value::array());
  json::Value arr = json::Value::array();
  arr.push_back(json::Value(true));
  arr.push_back(json::Value("x"));
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\"z\":1,\"a\":[],\"list\":[true,\"x\"]}");

  const json::Value reparsed = json::Value::parse(obj.dump(2));
  EXPECT_EQ(reparsed.dump(), obj.dump());
  EXPECT_EQ(reparsed.as_object().front().first, "z");  // insertion order kept
  EXPECT_EQ(reparsed.at("list").as_array().size(), 2u);
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "01x", "\"unterminated", "{\"a\" 1}",
        "[1] trailing", "{\"a\":1,}", "\"bad\\escape\"", "\"\\u12g4\""}) {
    EXPECT_THROW(json::Value::parse(bad), json::JsonError) << bad;
  }
  EXPECT_THROW(json::Value::parse("{\"a\":1}").at("b"), std::runtime_error);
  EXPECT_THROW(json::Value::parse("1").as_string(), std::runtime_error);
}

// ----------------------------------------------------- SolveResult round trip --

/// The fixed two-component instance used by the golden file: one g=2 clique
/// component routed to clique_matching, one proper-clique component routed
/// to the DP.  Everything downstream is deterministic.
Instance golden_instance() {
  return Instance(
      {Job(0, 10), Job(5, 15), Job(0, 15), Job(20, 25), Job(20, 25), Job(23, 28)},
      /*g=*/2);
}

SolveResult golden_result() {
  SolveResult result = run_solver(golden_instance(), SolverSpec::parse("auto"));
  result.wall_ms = 0;  // the only nondeterministic field
  return result;
}

TEST(ResultJson, RoundTripPreservesEveryField) {
  const SolveResult result = golden_result();
  const SolveResult reloaded = result_from_json(result_to_json(result));
  EXPECT_EQ(reloaded.solver, result.solver);
  EXPECT_EQ(reloaded.status, result.status);
  EXPECT_EQ(reloaded.ignored_options, result.ignored_options);
  EXPECT_EQ(reloaded.cost, result.cost);
  EXPECT_EQ(reloaded.throughput, result.throughput);
  EXPECT_EQ(reloaded.valid, result.valid);
  EXPECT_EQ(reloaded.schedule.assignment(), result.schedule.assignment());
  EXPECT_EQ(reloaded.trace, result.trace);
  EXPECT_EQ(reloaded.bounds.length, result.bounds.length);
  EXPECT_EQ(reloaded.bounds.span, result.bounds.span);
  EXPECT_EQ(reloaded.bounds.parallelism_num, result.bounds.parallelism_num);
  EXPECT_EQ(reloaded.bounds.g, result.bounds.g);
  EXPECT_EQ(reloaded.stats.jobs_assigned, result.stats.jobs_assigned);
  EXPECT_EQ(reloaded.stats.machines_opened, result.stats.machines_opened);
  EXPECT_EQ(reloaded.stats.clock, result.stats.clock);
  EXPECT_DOUBLE_EQ(reloaded.ratio_to_lower_bound, result.ratio_to_lower_bound);
  // Re-serializing the reloaded result reproduces the bytes.
  EXPECT_EQ(result_to_json(reloaded), result_to_json(result));
}

TEST(ResultJson, MatchesGoldenFile) {
  const std::string path =
      std::string(BUSYTIME_TEST_DATA_DIR) + "/solve_result_golden.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  // Byte-exact: the serialization format is a contract (CI validates CLI
  // output against it).  Regenerate with:
  //   busytime_cli solve --in=<golden instance> --solver=auto --json
  // and zero wall_ms.
  EXPECT_EQ(result_to_json(golden_result()), golden);

  // And the golden file itself reloads into the same result.
  const SolveResult reloaded = result_from_json(golden);
  EXPECT_EQ(reloaded.cost, golden_result().cost);
  EXPECT_EQ(reloaded.trace, golden_result().trace);
}

TEST(ResultJson, StatusAndIgnoredOptionsRoundTrip) {
  // A deadline-tripped request with ignored options survives the round
  // trip; pre-facade documents without the keys still load as plain "ok".
  SolveResult result = golden_result();
  result.status = SolveStatus::kDeadline;
  result.ignored_options = {"epoch", "seed"};
  const SolveResult reloaded = result_from_json(result_to_json(result));
  EXPECT_EQ(reloaded.status, SolveStatus::kDeadline);
  EXPECT_EQ(reloaded.ignored_options, result.ignored_options);
  EXPECT_EQ(result_to_json(reloaded), result_to_json(result));

  json::Value doc = json::Value::parse(result_to_json(golden_result()));
  json::Value pruned = json::Value::object();
  for (const auto& [key, value] : doc.as_object())
    if (key != "status" && key != "ignored_options") pruned.set(key, value);
  const SolveResult legacy = result_from_json(pruned.dump());
  EXPECT_EQ(legacy.status, SolveStatus::kOk);
  EXPECT_TRUE(legacy.ignored_options.empty());

  // set() appends (first key wins on read), so rebuild to replace status.
  json::Value bad = json::Value::object();
  for (const auto& [key, value] : doc.as_object())
    bad.set(key, key == "status" ? json::Value("exploded") : value);
  EXPECT_THROW(result_from_json(bad.dump()), std::runtime_error);
}

TEST(ResultJson, RejectsOutOfRangeMachineIds) {
  const std::string full = result_to_json(golden_result());
  json::Value doc = json::Value::parse(full);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "schedule") {
      out.set(key, value);
      continue;
    }
    json::Value sched = json::Value::array();
    sched.push_back(json::Value(std::int64_t{1} << 32));  // truncates to 0 in int32
    sched.push_back(json::Value(0));
    out.set(key, std::move(sched));
  }
  EXPECT_THROW(result_from_json(out.dump()), std::runtime_error);
}

TEST(ResultJson, RejectsWrongFormatAndMissingFields) {
  EXPECT_THROW(result_from_json("{\"format\":\"busytime-result-v0\"}"),
               std::runtime_error);
  EXPECT_THROW(result_from_json("{}"), std::runtime_error);
  // Drop one required key: parse, remove, re-dump, expect a throw.
  const std::string full = result_to_json(golden_result());
  json::Value doc = json::Value::parse(full);
  json::Value pruned = json::Value::object();
  for (const auto& [key, value] : doc.as_object())
    if (key != "stats") pruned.set(key, value);
  EXPECT_THROW(result_from_json(pruned.dump()), std::runtime_error);
}

/// `object` rebuilt with `key` replaced by `value`, or dropped when `value`
/// is null (json::Value::set appends, so edits rebuild the object).
json::Value with_key(const json::Value& object, const std::string& key,
                     const json::Value& value) {
  json::Value out = json::Value::object();
  for (const auto& [k, v] : object.as_object()) {
    if (k != key) {
      out.set(k, v);
    } else if (!value.is_null()) {
      out.set(k, value);
    }
  }
  return out;
}

TEST(ResultJson, NestedRecordsKeepTheirCompatibilityRules) {
  const json::Value doc = json::Value::parse(result_to_json(golden_result()));
  const json::Value& stats = doc.at("stats");
  // Retraction counters postdate the format's first release: absent, each
  // reads 0.  Every other stats key is required.
  for (const char* key : {"jobs_cancelled", "jobs_preempted", "cancels_ignored",
                          "slots_recycled", "busy_time_refunded"}) {
    SCOPED_TRACE(key);
    const json::Value nonzero = with_key(doc, "stats", with_key(stats, key, json::Value(5)));
    const json::Value absent = with_key(doc, "stats", with_key(stats, key, json::Value()));
    EXPECT_NE(result_from_json(nonzero.dump()).stats, golden_result().stats);
    EXPECT_EQ(result_from_json(absent.dump()).stats, golden_result().stats);
  }
  for (const char* key : {"clock", "online_cost", "jobs_assigned"}) {
    SCOPED_TRACE(key);
    const json::Value absent = with_key(doc, "stats", with_key(stats, key, json::Value()));
    EXPECT_THROW(result_from_json(absent.dump()), std::runtime_error);
  }
  // The readers run CostBounds::check(): g = 0 would divide by zero.
  const json::Value zero_g =
      with_key(doc, "bounds", with_key(doc.at("bounds"), "g", json::Value(0)));
  try {
    result_from_json(zero_g.dump());
    ADD_FAILURE() << "bounds.g = 0 loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("g must be >= 1"), std::string::npos) << e.what();
  }
  // Integers that do not fit their field are rejected, not truncated.
  const json::Value wide_g = with_key(
      doc, "bounds", with_key(doc.at("bounds"), "g", json::Value(std::int64_t{1} << 32)));
  EXPECT_THROW(result_from_json(wide_g.dump()), std::runtime_error);
}

}  // namespace
}  // namespace busytime
