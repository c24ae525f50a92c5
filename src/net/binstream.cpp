#include "net/binstream.hpp"

#include <cstring>
#include <limits>

namespace busytime::net {

// Field order in every pair below is the struct's declaration order; the
// layout is frozen as part of busytime-wire-v1 (docs/FORMATS.md).

namespace {

/// The interval checks, in reading order.  Interval's constructor asserts
/// s <= c, but a hostile payload must surface as WireError, not an assert.
void check_interval(Time start, Time completion) {
  if (completion < start)
    throw WireError("interval completion precedes start");
  // length() computes completion - start in signed arithmetic everywhere
  // downstream; an extreme pair (say INT64_MIN .. INT64_MAX) would make
  // that UB.  The unsigned difference is well-defined, so check it here.
  if (static_cast<std::uint64_t>(completion) - static_cast<std::uint64_t>(start) >
      static_cast<std::uint64_t>(std::numeric_limits<Time>::max()))
    throw WireError("interval length overflows the time type");
}

/// The checks a Job adds to its interval's, run after the whole record is
/// read.
void check_length_and_demand(const Job& job) {
  if (job.length() <= 0) throw WireError("job has non-positive length");
  if (job.demand < 1) throw WireError("job demand must be >= 1");
}

/// The Job whose 32-byte wire record starts at `record`.
Job load_job(const char* record) {
  Job job;
  job.interval.start = static_cast<Time>(load_le<std::uint64_t>(record));
  job.interval.completion = static_cast<Time>(load_le<std::uint64_t>(record + 8));
  job.weight = static_cast<std::int64_t>(load_le<std::uint64_t>(record + 16));
  job.demand = static_cast<std::int64_t>(load_le<std::uint64_t>(record + 24));
  return job;
}

}  // namespace

ibinstream& operator<<(ibinstream& m, const Interval& iv) {
  return m << iv.start << iv.completion;
}

obinstream& operator>>(obinstream& m, Interval& iv) {
  Time start = 0, completion = 0;
  m >> start >> completion;
  check_interval(start, completion);
  iv.start = start;
  iv.completion = completion;
  return m;
}

ibinstream& operator<<(ibinstream& m, const Job& job) {
  // The four 8-byte fields in one append.
  char record[WireMinBytes<Job>::value];
  store_le(record, static_cast<std::uint64_t>(job.interval.start));
  store_le(record + 8, static_cast<std::uint64_t>(job.interval.completion));
  store_le(record + 16, static_cast<std::uint64_t>(job.weight));
  store_le(record + 24, static_cast<std::uint64_t>(job.demand));
  m.raw(record, sizeof(record));
  return m;
}

obinstream& operator>>(obinstream& m, Job& job) {
  m >> job.interval >> job.weight >> job.demand;
  check_length_and_demand(job);
  return m;
}

ibinstream& operator<<(ibinstream& m, const std::vector<Job>& jobs) {
  if (jobs.size() > UINT32_MAX)
    throw WireError("vector exceeds the u32 wire length");
  m.reserve_more(4 + jobs.size() * sizeof(Job));
  m << static_cast<std::uint32_t>(jobs.size());
  if constexpr (kLittleEndianHost) {
    if (!jobs.empty()) m.raw(jobs.data(), jobs.size() * sizeof(Job));
  } else {
    for (const Job& job : jobs) m << job;
  }
  return m;
}

obinstream& operator>>(obinstream& m, std::vector<Job>& jobs) {
  const auto n = m.read<std::uint32_t>();
  m.require_count(n, WireMinBytes<Job>::value, sizeof(Job));
  const char* record = m.consume(std::size_t{n} * sizeof(Job));
  jobs.clear();
  jobs.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i, record += sizeof(Job)) {
    const Job job = load_job(record);
    check_interval(job.interval.start, job.interval.completion);
    check_length_and_demand(job);
    jobs.push_back(job);
  }
  return m;
}

ibinstream& operator<<(ibinstream& m, const Instance& inst) {
  return m << inst.g() << inst.jobs();
}

obinstream& operator>>(obinstream& m, Instance& inst) {
  std::int32_t g = 0;
  std::vector<Job> jobs;
  m >> g >> jobs;
  if (g < 1) throw WireError("instance g must be >= 1");
  inst = Instance(std::move(jobs), g);
  return m;
}

ibinstream& operator<<(ibinstream& m, const EventTrace& trace) {
  // The canonicalized records travel; EventTrace's constructor re-runs the
  // (idempotent) canonicalization on the receiver, so both ends agree on
  // the effective record set.  dropped_cancels() is a load-time diagnostic
  // of the *original* input and intentionally does not travel.
  return m << trace.base() << trace.cancels();
}

obinstream& operator>>(obinstream& m, EventTrace& trace) {
  Instance base;
  std::vector<CancelRecord> cancels;
  m >> base >> cancels;
  const std::size_t n = base.size();
  for (const CancelRecord& record : cancels)
    if (record.job < 0 || static_cast<std::size_t>(record.job) >= n)
      throw WireError("cancel record names job " + std::to_string(record.job) +
                      " of " + std::to_string(n));
  trace = EventTrace(std::move(base), std::move(cancels));
  return m;
}

ibinstream& operator<<(ibinstream& m, const Schedule& schedule) {
  return m << schedule.assignment();
}

obinstream& operator>>(obinstream& m, Schedule& schedule) {
  std::vector<MachineId> assignment;
  m >> assignment;
  for (const MachineId machine : assignment)
    if (machine < Schedule::kUnscheduled)
      throw WireError("machine id below kUnscheduled");
  schedule = Schedule(std::move(assignment));
  return m;
}

ibinstream& operator<<(ibinstream& m, SolveStatus status) {
  return m << static_cast<std::uint8_t>(status);
}

obinstream& operator>>(obinstream& m, SolveStatus& status) {
  const auto byte = m.read<std::uint8_t>();
  if (byte > static_cast<std::uint8_t>(SolveStatus::kShedded))
    throw WireError("unknown SolveStatus " + std::to_string(byte));
  status = static_cast<SolveStatus>(byte);
  return m;
}

obinstream& operator>>(obinstream& m, SolveResult& result) {
  // `cached` postdates the wire format's first release.  A SolveResult is
  // only ever an entire result-frame payload (never nested inside another
  // message), so "payload ends here" reliably means a pre-cache peer wrote
  // it; the flag must stay the last field for this to hold.
  SolveResult::fields([&](const char* key, auto member) {
    if (!(m.done() && std::strcmp(key, "cached") == 0)) m >> result.*member;
  });
  return m;
}

}  // namespace busytime::net
