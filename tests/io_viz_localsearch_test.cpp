// Tests for serialization, the Gantt renderer, and local search.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "algo/dispatch.hpp"
#include "algo/exact_minbusy.hpp"
#include "algo/first_fit.hpp"
#include "algo/local_search.hpp"
#include "api/registry.hpp"
#include "core/validate.hpp"
#include "io/serialize.hpp"
#include "viz/gantt.hpp"
#include "workload/cancellable.hpp"
#include "workload/generators.hpp"

namespace busytime {
namespace {

// ------------------------------------------------------------ serialization

TEST(Serialize, InstanceRoundTrip) {
  GenParams p;
  p.n = 25;
  p.g = 3;
  p.seed = 5;
  Instance inst = with_random_weights(gen_general(p), 9, 11);
  std::stringstream buffer;
  write_instance(buffer, inst);
  const Instance loaded = read_instance(buffer);
  ASSERT_EQ(loaded.size(), inst.size());
  EXPECT_EQ(loaded.g(), inst.g());
  for (std::size_t j = 0; j < inst.size(); ++j) {
    EXPECT_EQ(loaded.jobs()[j].interval, inst.jobs()[j].interval);
    EXPECT_EQ(loaded.jobs()[j].weight, inst.jobs()[j].weight);
    EXPECT_EQ(loaded.jobs()[j].demand, inst.jobs()[j].demand);
  }
}

TEST(Serialize, ScheduleRoundTrip) {
  GenParams p;
  p.n = 20;
  p.g = 2;
  p.seed = 9;
  const Instance inst = gen_general(p);
  Schedule s = solve_first_fit(inst);
  s.unschedule(3);  // exercise partial schedules
  std::stringstream buffer;
  write_schedule(buffer, s);
  const Schedule loaded = read_schedule(buffer, inst.size());
  EXPECT_EQ(loaded.assignment(), s.assignment());
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  std::stringstream in(
      "# a comment\n"
      "busytime-instance v1\n"
      "\n"
      "g 2   # capacity\n"
      "job 0 10\n"
      "job 5 15 7\n"
      "job 5 15 7 2\n");
  const Instance inst = read_instance(in);
  ASSERT_EQ(inst.size(), 3u);
  EXPECT_EQ(inst.g(), 2);
  EXPECT_EQ(inst.jobs()[1].weight, 7);
  EXPECT_EQ(inst.jobs()[2].demand, 2);
}

TEST(Serialize, RejectsMalformedInput) {
  const auto expect_parse_error = [](const std::string& text) {
    std::stringstream in(text);
    EXPECT_THROW(read_instance(in), ParseError) << text;
  };
  expect_parse_error("");                                      // empty
  expect_parse_error("wrong-header v1\ng 2\njob 0 1\n");       // bad magic
  expect_parse_error("busytime-instance v2\ng 2\njob 0 1\n");  // bad version
  expect_parse_error("busytime-instance v1\njob 0 1\n");       // missing g
  expect_parse_error("busytime-instance v1\ng 0\njob 0 1\n");  // g < 1
  expect_parse_error("busytime-instance v1\ng 2\njob 5 5\n");  // empty job
  expect_parse_error("busytime-instance v1\ng 2\njob 5\n");    // truncated
  expect_parse_error("busytime-instance v1\ng 2\nfrob 1 2\n"); // unknown kw

  std::stringstream sched("busytime-schedule v1\nn 3\nassign 5 0\n");
  EXPECT_THROW(read_schedule(sched, 3), ParseError);  // job id out of range
  std::stringstream wrong_n("busytime-schedule v1\nn 4\n");
  EXPECT_THROW(read_schedule(wrong_n, 3), ParseError);  // size mismatch
}

// Every record must use up its line.  An optional field that fails to
// parse is an error, never a silent 0 (a demand-0 job would slip past the
// demand >= 1 check).
TEST(Serialize, InstanceRecordsMustConsumeTheirLine) {
  const std::string head = "busytime-instance v1\ng 3\n";
  for (const std::string& bad : {
           std::string("job 0 10 2 x\n"),    // unparsable demand
           std::string("job 0 10 abc\n"),    // unparsable weight
           std::string("job 0 10 2 3 4\n"),  // a field the format lacks
           std::string("job 0 10.5\n"),      // non-integer completion
       }) {
    std::stringstream in(head + bad);
    EXPECT_THROW(read_instance(in), ParseError) << bad;
  }
  std::stringstream bad_g("busytime-instance v1\ng 3x\njob 0 10\n");
  EXPECT_THROW(read_instance(bad_g), ParseError);
  std::stringstream bad_header("busytime-instance v1 extra\ng 3\njob 0 10\n");
  EXPECT_THROW(read_instance(bad_header), ParseError);
}

TEST(Serialize, EventTraceRecordsMustConsumeTheirLine) {
  const std::string head = "busytime-instance v1\ng 2\njob 0 10\n";
  for (const std::string& bad : {std::string("cancel 0 5 junk\n"),
                                 std::string("preempt 0 5 1\n")}) {
    std::stringstream in(head + bad);
    EXPECT_THROW(read_event_trace(in), ParseError) << bad;
  }
  std::stringstream good(head + "cancel 0 5   # a comment\n");
  EXPECT_EQ(read_event_trace(good).cancels().size(), 1u);
}

TEST(Serialize, ScheduleRecordsMustConsumeTheirLine) {
  std::stringstream bad_n("busytime-schedule v1\nn 2x\nassign 0 1\n");
  EXPECT_THROW(read_schedule(bad_n, 2), ParseError);
  std::stringstream bad_assign("busytime-schedule v1\nn 2\nassign 0 1 junk\n");
  EXPECT_THROW(read_schedule(bad_assign, 2), ParseError);
  std::stringstream good("busytime-schedule v1\nn 2\nassign 0 1 \t\nassign 1 0\n");
  EXPECT_EQ(read_schedule(good, 2).machine_of(0), 1);
}

// A machine id past MachineId's range must fail on its own line, not wrap:
// 2^31 would become INT32_MIN and 2^32 - 1 would become kUnscheduled.
TEST(Serialize, ScheduleRejectsMachineIdsPastTheIdType) {
  for (const std::string& id : {std::string("2147483648"), std::string("4294967295")}) {
    std::stringstream in("busytime-schedule v1\nn 2\nassign 1 0\nassign 0 " + id + "\n");
    try {
      read_schedule(in, 2);
      FAIL() << "expected ParseError for machine " << id;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 4) << id;
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
    }
  }
  // Ids are bounded by the job count, so the id type's largest value only
  // loads where the job count exceeds it.
  std::stringstream largest("busytime-schedule v1\nn 1\nassign 0 2147483647\n");
  EXPECT_THROW(read_schedule(largest, 1), ParseError);
}

// A schedule of n jobs uses machine ids below n: a larger id is a ParseError
// naming its line, so no consumer sizes per-machine state by a forged id
// (a 2-job file with `assign 0 100000000` once exhausted memory in
// `busytime_cli check`).  Every schedule the solvers write meets the bound
// and reloads.
TEST(Serialize, ScheduleRejectsMachineIdsAtOrPastTheJobCount) {
  for (const std::string& id : {std::string("2"), std::string("100000000")}) {
    std::stringstream in("busytime-schedule v1\nn 2\nassign 1 1\nassign 0 " + id + "\n");
    try {
      read_schedule(in, 2);
      FAIL() << "expected ParseError for machine " << id;
    } catch (const ParseError& e) {
      EXPECT_EQ(e.line(), 4) << id;
      EXPECT_NE(std::string(e.what()).find(id), std::string::npos) << e.what();
    }
  }
  std::stringstream largest("busytime-schedule v1\nn 2\nassign 0 1\nassign 1 1\n");
  EXPECT_EQ(read_schedule(largest, 2).machine_of(1), 1);

  // Every family the generators make, small enough for the exact solvers.
  std::vector<EventTrace> workloads;
  for (const int g : {2, 3}) {
    GenParams p;
    p.n = 10;
    p.g = g;
    p.seed = 4;
    for (Instance (*gen)(const GenParams&) :
         {gen_general, gen_clique, gen_proper, gen_proper_clique, gen_one_sided})
      workloads.emplace_back(gen(p));
  }
  TraceParams tp;
  tp.n = 60;
  tp.g = 2;
  tp.seed = 4;
  workloads.push_back(with_random_cancels(gen_trace(tp), CancelParams{0.3, 0.25, 5}));
  std::set<std::string> written;
  for (const EventTrace& trace : workloads) {
    for (const SolverInfo* info : SolverRegistry::instance().all()) {
      SolverSpec spec;
      spec.name = info->name;
      if (info->needs_budget) spec.options.budget = 200;
      SolveResult result;
      try {
        result = run_solver(trace, spec);
      } catch (const NotApplicableError&) {
        continue;
      }
      std::stringstream buffer;
      write_schedule(buffer, result.schedule);
      EXPECT_EQ(read_schedule(buffer, trace.size()).assignment(),
                result.schedule.assignment())
          << info->name << " on " << trace.base().summary();
      written.insert(info->name);
    }
  }
  EXPECT_EQ(written.size(), SolverRegistry::instance().size());
}

TEST(Serialize, TrailingInputErrorNamesTheLine) {
  std::stringstream in("busytime-instance v1\ng 2\njob 0 10\njob 0 10 1 1 1\n");
  try {
    read_instance(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 4);
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'job'"), std::string::npos);
  }
}

TEST(Serialize, ParseErrorReportsLine) {
  std::stringstream in("busytime-instance v1\ng 2\njob 9 2\n");
  try {
    read_instance(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
  }
}

// -------------------------------------------------------------------- gantt

TEST(Gantt, RendersMachinesAndLegend) {
  const Instance inst({Job(0, 10), Job(5, 15), Job(20, 30)}, 2);
  const Schedule s = schedule_from_groups(inst.size(), {{0, 1}, {2}});
  const std::string chart = render_gantt(inst, s);
  EXPECT_NE(chart.find("M0"), std::string::npos);
  EXPECT_NE(chart.find("M1"), std::string::npos);
  EXPECT_NE(chart.find("legend:"), std::string::npos);
  EXPECT_NE(chart.find("time 0 .. 30"), std::string::npos);
}

TEST(Gantt, MarksUnscheduledJobs) {
  const Instance inst({Job(0, 10), Job(5, 15)}, 2);
  Schedule s(inst.size());
  s.assign(0, 0);
  const std::string chart = render_gantt(inst, s);
  EXPECT_NE(chart.find("unscheduled: 1"), std::string::npos);
}

TEST(Gantt, EmptyScheduleStub) {
  const Instance inst({Job(0, 10)}, 1);
  EXPECT_EQ(render_gantt(inst, Schedule(inst.size())), "(empty schedule)\n");
}

// ------------------------------------------------------------- local search

TEST(LocalSearch, NeverWorsensAndStaysValid) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    GenParams p;
    p.n = 30;
    p.g = static_cast<int>(2 + seed % 3);
    p.seed = seed * 3;
    const Instance inst = gen_general(p);
    Schedule s = one_job_per_machine(inst);
    const Time before = s.cost(inst);
    const LocalSearchStats stats = improve_schedule(inst, s);
    EXPECT_TRUE(is_valid(inst, s));
    EXPECT_LE(s.cost(inst), before);
    EXPECT_EQ(stats.final_cost, s.cost(inst));
    EXPECT_EQ(stats.initial_cost, before);
    EXPECT_EQ(s.throughput(), static_cast<std::int64_t>(inst.size()));
  }
}

TEST(LocalSearch, ReachesOptimumOnEasyInstances) {
  // Two overlapping pairs; one-job-per-machine start must converge to the
  // optimal pairing.
  const Instance inst({Job(0, 10), Job(0, 10), Job(20, 30), Job(20, 30)}, 2);
  Schedule s = one_job_per_machine(inst);
  improve_schedule(inst, s);
  EXPECT_EQ(s.cost(inst), exact_minbusy_cost(inst).value());
}

TEST(LocalSearch, ImprovesFirstFitOnAverage) {
  Time total_before = 0, total_after = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    GenParams p;
    p.n = 40;
    p.g = 3;
    p.seed = seed * 17;
    const Instance inst = gen_general(p);
    Schedule s = solve_first_fit(inst);
    total_before += s.cost(inst);
    improve_schedule(inst, s);
    total_after += s.cost(inst);
    EXPECT_TRUE(is_valid(inst, s));
  }
  EXPECT_LE(total_after, total_before);
}

TEST(LocalSearch, RespectsPartialSchedules) {
  const Instance inst({Job(0, 10), Job(2, 12), Job(4, 14)}, 2);
  Schedule s(inst.size());
  s.assign(0, 0);
  s.assign(1, 1);  // job 2 unscheduled
  improve_schedule(inst, s);
  EXPECT_FALSE(s.is_scheduled(2));
  EXPECT_EQ(s.throughput(), 2);
  EXPECT_TRUE(is_valid(inst, s));
}

}  // namespace
}  // namespace busytime
