#include "io/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>

#include "io/json.hpp"
#include "util/fields.hpp"

namespace busytime {

namespace {

/// Reads lines, strips '#' comments, skips blanks, tracks line numbers.
class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty line as a token stream; false at EOF.
  bool next(std::istringstream& tokens) {
    std::string line;
    while (std::getline(is_, line)) {
      ++line_number_;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      // Skip if only whitespace remains.
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      tokens = std::istringstream(line);
      return true;
    }
    return false;
  }

  int line() const noexcept { return line_number_; }

 private:
  std::istream& is_;
  int line_number_ = 0;
};

/// True when nothing but whitespace is left on the line.
bool at_end(std::istringstream& tokens) {
  tokens >> std::ws;
  return tokens.eof();
}

/// Every record must use up its whole line: a token left over is a field
/// the format does not have, or a field that failed to parse.
void expect_end(std::istringstream& tokens, int line, const std::string& what) {
  if (!at_end(tokens))
    throw ParseError(line, "unexpected trailing input in '" + what + "' line");
}

}  // namespace

void write_instance(std::ostream& os, const Instance& inst) {
  os << "busytime-instance v1\n";
  os << "g " << inst.g() << "\n";
  for (const auto& job : inst.jobs()) {
    os << "job " << job.start() << " " << job.completion();
    if (job.weight != 1 || job.demand != 1) os << " " << job.weight;
    if (job.demand != 1) os << " " << job.demand;
    os << "\n";
  }
}

namespace {

/// Shared v1-container reader.  With `cancels` null, retraction records are
/// rejected (the caller asked for a plain instance); otherwise they are
/// collected for EventTrace canonicalization.
Instance read_instance_impl(std::istream& is, std::vector<CancelRecord>* cancels) {
  LineReader reader(is);
  std::istringstream tokens;

  if (!reader.next(tokens)) throw ParseError(reader.line(), "empty input");
  std::string magic, version;
  tokens >> magic >> version;
  if (magic != "busytime-instance" || version != "v1")
    throw ParseError(reader.line(), "expected 'busytime-instance v1' header");
  expect_end(tokens, reader.line(), magic);

  struct PendingRecord {
    int line = 0;
    long long job = 0;  // validated against the job count before narrowing
    Time at = 0;
    bool preempt = false;
  };
  int g = 0;
  std::vector<Job> jobs;
  std::vector<PendingRecord> records;
  while (reader.next(tokens)) {
    std::string keyword;
    tokens >> keyword;
    if (keyword == "g") {
      if (!(tokens >> g) || g < 1)
        throw ParseError(reader.line(), "g must be an integer >= 1");
    } else if (keyword == "job") {
      Time start = 0, completion = 0;
      if (!(tokens >> start >> completion))
        throw ParseError(reader.line(), "job needs <start> <completion>");
      if (completion <= start)
        throw ParseError(reader.line(), "job must have positive length");
      // Same guard as the wire reader: length() is signed completion - start,
      // so an extreme endpoint pair must be rejected, not wrapped into UB.
      if (static_cast<std::uint64_t>(completion) -
              static_cast<std::uint64_t>(start) >
          static_cast<std::uint64_t>(std::numeric_limits<Time>::max()))
        throw ParseError(reader.line(), "job length overflows the time type");
      Job job(start, completion);
      if (!at_end(tokens)) {
        if (!(tokens >> job.weight))
          throw ParseError(reader.line(), "job weight must be an integer");
        if (job.weight < 0) throw ParseError(reader.line(), "negative weight");
      }
      if (!at_end(tokens)) {
        if (!(tokens >> job.demand))
          throw ParseError(reader.line(), "job demand must be an integer");
        if (job.demand < 1) throw ParseError(reader.line(), "demand must be >= 1");
      }
      jobs.push_back(job);
    } else if (keyword == "cancel" || keyword == "preempt") {
      if (cancels == nullptr)
        throw ParseError(reader.line(),
                         "'" + keyword + "' records need read_event_trace");
      long long job = -1;
      Time at = 0;
      if (!(tokens >> job >> at))
        throw ParseError(reader.line(), keyword + " needs <job> <at>");
      if (job < 0) throw ParseError(reader.line(), "job id must be >= 0");
      records.push_back({reader.line(), job, at, keyword == "preempt"});
    } else {
      throw ParseError(reader.line(), "unknown keyword '" + keyword + "'");
    }
    expect_end(tokens, reader.line(), keyword);
  }
  if (g < 1) throw ParseError(reader.line(), "missing 'g' line");
  for (const PendingRecord& record : records) {
    // Range-check the raw id before narrowing to JobId (int32): an
    // oversized id must fail the load, not wrap onto a valid job.
    if (record.job >= static_cast<long long>(jobs.size()))
      throw ParseError(record.line,
                       "retraction names job " + std::to_string(record.job) +
                           " but the file defines " +
                           std::to_string(jobs.size()) + " jobs");
    cancels->push_back(CancelRecord{static_cast<JobId>(record.job), record.at,
                                    record.preempt});
  }
  return Instance(std::move(jobs), g);
}

}  // namespace

Instance read_instance(std::istream& is) { return read_instance_impl(is, nullptr); }

void write_event_trace(std::ostream& os, const EventTrace& trace) {
  write_instance(os, trace.base());
  for (const CancelRecord& record : trace.cancels())
    os << (record.preempt ? "preempt " : "cancel ") << record.job << " "
       << record.at << "\n";
}

EventTrace read_event_trace(std::istream& is) {
  std::vector<CancelRecord> cancels;
  Instance base = read_instance_impl(is, &cancels);
  return EventTrace(std::move(base), std::move(cancels));
}

void write_schedule(std::ostream& os, const Schedule& s) {
  os << "busytime-schedule v1\n";
  os << "n " << s.size() << "\n";
  for (std::size_t j = 0; j < s.size(); ++j)
    if (s.is_scheduled(static_cast<JobId>(j)))
      os << "assign " << j << " " << s.machine_of(static_cast<JobId>(j)) << "\n";
}

Schedule read_schedule(std::istream& is, std::size_t expected_jobs) {
  LineReader reader(is);
  std::istringstream tokens;

  if (!reader.next(tokens)) throw ParseError(reader.line(), "empty input");
  std::string magic, version;
  tokens >> magic >> version;
  if (magic != "busytime-schedule" || version != "v1")
    throw ParseError(reader.line(), "expected 'busytime-schedule v1' header");
  expect_end(tokens, reader.line(), magic);

  std::size_t n = 0;
  bool have_n = false;
  Schedule s(expected_jobs);
  while (reader.next(tokens)) {
    std::string keyword;
    tokens >> keyword;
    if (keyword == "n") {
      if (!(tokens >> n)) throw ParseError(reader.line(), "n needs a count");
      if (n != expected_jobs)
        throw ParseError(reader.line(),
                         "schedule is for " + std::to_string(n) + " jobs, expected " +
                             std::to_string(expected_jobs));
      have_n = true;
    } else if (keyword == "assign") {
      long long job = -1, machine = -1;
      if (!(tokens >> job >> machine))
        throw ParseError(reader.line(), "assign needs <job> <machine>");
      if (job < 0 || static_cast<std::size_t>(job) >= expected_jobs)
        throw ParseError(reader.line(), "job id out of range");
      if (machine < 0) throw ParseError(reader.line(), "machine id must be >= 0");
      // A schedule of n jobs never needs a machine id >= n, and the
      // per-machine passes (jobs_per_machine, measure_schedule) size their
      // state by the largest id: bound it by the job count, before
      // narrowing to MachineId (int32) so an oversized id cannot wrap to a
      // negative id or to kUnscheduled.
      if (static_cast<unsigned long long>(machine) >= expected_jobs ||
          machine > std::numeric_limits<MachineId>::max())
        throw ParseError(reader.line(),
                         "machine id " + std::to_string(machine) +
                             " out of range: a schedule of " +
                             std::to_string(expected_jobs) +
                             " jobs uses machine ids below " +
                             std::to_string(expected_jobs));
      s.assign(static_cast<JobId>(job), static_cast<MachineId>(machine));
    } else {
      throw ParseError(reader.line(), "unknown keyword '" + keyword + "'");
    }
    expect_end(tokens, reader.line(), keyword);
  }
  if (!have_n) throw ParseError(reader.line(), "missing 'n' line");
  return s;
}

namespace {

constexpr const char* kResultFormat = "busytime-result-v1";

/// A record as a JSON object: one key per field, in list order.
template <typename T>
json::Value fields_to_json(const T& record) {
  json::Value object = json::Value::object();
  T::fields([&](const char* key, auto member) {
    using M = std::decay_t<decltype(record.*member)>;
    if constexpr (std::is_integral<M>::value && !std::is_same<M, bool>::value)
      object.set(key, static_cast<std::int64_t>(record.*member));
    else
      object.set(key, record.*member);
  });
  return object;
}

/// Reads the JSON object `object` into a record through its field list,
/// then runs the record's check().  Keys in `optional` may be absent and
/// keep the record's default; any other absent key is an error.
template <typename T>
T fields_from_json(const json::Value& object,
                   const std::set<std::string>& optional = {}) {
  T record;
  T::fields([&](const char* key, auto member) {
    if (optional.count(key) != 0 && object.find(key) == nullptr) return;
    const json::Value& value = object.at(key);  // throws, naming the key
    using M = std::decay_t<decltype(record.*member)>;
    if constexpr (std::is_same<M, bool>::value) {
      record.*member = value.as_bool();
    } else if constexpr (std::is_integral<M>::value) {
      const std::int64_t wide = value.as_int();
      if (static_cast<std::int64_t>(static_cast<M>(wide)) != wide)
        throw std::runtime_error(std::string("'") + key + "' is out of range");
      record.*member = static_cast<M>(wide);
    } else if constexpr (std::is_floating_point<M>::value) {
      record.*member = value.as_double();
    } else {
      record.*member = value.as_string();
    }
  });
  try {
    util::check_fields(record);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
  }
  return record;
}

}  // namespace

std::string result_to_json(const SolveResult& result, int indent) {
  return result_to_json_value(result).dump(indent) + "\n";
}

json::Value result_to_json_value(const SolveResult& result) {
  json::Value root = json::Value::object();
  root.set("format", kResultFormat);
  root.set("solver", result.solver);
  root.set("status", to_string(result.status));
  root.set("cached", result.cached);
  root.set("cost", result.cost);
  root.set("throughput", result.throughput);
  root.set("valid", result.valid);
  root.set("ratio_to_lower_bound", result.ratio_to_lower_bound);
  root.set("wall_ms", result.wall_ms);
  json::Value ignored = json::Value::array();
  for (const std::string& key : result.ignored_options)
    ignored.push_back(key);
  root.set("ignored_options", std::move(ignored));

  root.set("bounds", fields_to_json(result.bounds));
  json::Value trace = json::Value::array();
  for (const ComponentTrace& entry : result.trace)
    trace.push_back(fields_to_json(entry));
  root.set("trace", std::move(trace));
  root.set("stats", fields_to_json(result.stats));

  json::Value assignment = json::Value::array();
  for (const MachineId m : result.schedule.assignment())
    assignment.push_back(static_cast<std::int64_t>(m));
  root.set("schedule", std::move(assignment));

  return root;
}

SolveResult result_from_json(const std::string& text) {
  const json::Value root = json::Value::parse(text);
  if (root.at("format").as_string() != kResultFormat)
    throw std::runtime_error("expected format '" + std::string(kResultFormat) +
                             "', got '" + root.at("format").as_string() + "'");
  SolveResult result;
  result.solver = root.at("solver").as_string();
  // Request-status fields postdate the v1 format's first release; absent
  // keys (documents written before the Service facade) mean an ordinary
  // completed solve.
  if (const json::Value* status = root.find("status")) {
    const std::string& text = status->as_string();
    if (text == "ok") result.status = SolveStatus::kOk;
    else if (text == "deadline") result.status = SolveStatus::kDeadline;
    else if (text == "cancelled") result.status = SolveStatus::kCancelled;
    else if (text == "shedded") result.status = SolveStatus::kShedded;
    else throw std::runtime_error("unknown result status '" + text + "'");
  }
  // The cached flag postdates the Service's result cache; absent means a
  // freshly computed result.
  if (const json::Value* cached = root.find("cached"))
    result.cached = cached->as_bool();
  if (const json::Value* ignored = root.find("ignored_options"))
    for (const json::Value& key : ignored->as_array())
      result.ignored_options.push_back(key.as_string());
  result.cost = root.at("cost").as_int();
  result.throughput = root.at("throughput").as_int();
  result.valid = root.at("valid").as_bool();
  result.ratio_to_lower_bound = root.at("ratio_to_lower_bound").as_double();
  result.wall_ms = root.at("wall_ms").as_double();

  result.bounds = fields_from_json<CostBounds>(root.at("bounds"));
  for (const json::Value& entry : root.at("trace").as_array())
    result.trace.push_back(fields_from_json<ComponentTrace>(entry));
  // Retraction counters postdate the v1 format's first release; absent keys
  // (documents written before cancellation support) default to zero.
  result.stats = fields_from_json<EngineStats>(
      root.at("stats"), {"jobs_cancelled", "jobs_preempted", "cancels_ignored",
                         "slots_recycled", "busy_time_refunded"});

  std::vector<MachineId> assignment;
  for (const json::Value& m : root.at("schedule").as_array()) {
    const std::int64_t machine = m.as_int();
    if (machine < Schedule::kUnscheduled ||
        machine > std::numeric_limits<MachineId>::max())
      throw std::runtime_error("schedule entry out of machine-id range: " +
                               std::to_string(machine));
    assignment.push_back(static_cast<MachineId>(machine));
  }
  result.schedule = Schedule(std::move(assignment));
  return result;
}

void write_result_json(std::ostream& os, const SolveResult& result) {
  os << result_to_json(result);
}

SolveResult read_result_json(std::istream& is) {
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return result_from_json(buffer.str());
}

namespace {

std::ifstream open_in(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return is;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}

}  // namespace

std::string instance_to_string(const Instance& inst) {
  std::ostringstream os;
  write_instance(os, inst);
  return os.str();
}

Instance instance_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_instance(is);
}

std::string event_trace_to_string(const EventTrace& trace) {
  std::ostringstream os;
  write_event_trace(os, trace);
  return os.str();
}

EventTrace event_trace_from_string(const std::string& text) {
  std::istringstream is(text);
  return read_event_trace(is);
}

void save_event_trace(const std::string& path, const EventTrace& trace) {
  auto os = open_out(path);
  write_event_trace(os, trace);
}

EventTrace load_event_trace(const std::string& path) {
  auto is = open_in(path);
  return read_event_trace(is);
}

void save_schedule(const std::string& path, const Schedule& s) {
  auto os = open_out(path);
  write_schedule(os, s);
}

Schedule load_schedule(const std::string& path, std::size_t expected_jobs) {
  auto is = open_in(path);
  return read_schedule(is, expected_jobs);
}

void save_result_json(const std::string& path, const SolveResult& result) {
  auto os = open_out(path);
  write_result_json(os, result);
}

SolveResult load_result_json(const std::string& path) {
  auto is = open_in(path);
  return read_result_json(is);
}

}  // namespace busytime
