// Tests for instance classification and connected components.
#include "core/classify.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/components.hpp"
#include "util/prng.hpp"

namespace busytime {
namespace {

TEST(Classify, CliqueDetection) {
  // All share time 5.
  const Instance clique({Job(0, 6), Job(4, 9), Job(5, 7)}, 2);
  EXPECT_TRUE(is_clique(clique));
  const auto t = clique_time(clique);
  ASSERT_TRUE(t.has_value());
  for (const auto& j : clique.jobs()) EXPECT_TRUE(j.interval.contains_time(*t));

  // [0,5) and [5,9) share only the touching point 5 -> not a clique.
  const Instance touching({Job(0, 5), Job(5, 9)}, 2);
  EXPECT_FALSE(is_clique(touching));

  const Instance path({Job(0, 4), Job(3, 7), Job(6, 10)}, 2);
  EXPECT_FALSE(is_clique(path));  // jobs 0 and 2 don't meet
}

TEST(Classify, ProperDetection) {
  // Staircase: proper.
  const Instance proper({Job(0, 4), Job(2, 6), Job(4, 8)}, 2);
  EXPECT_TRUE(is_proper(proper));
  // Proper containment.
  const Instance contained({Job(0, 10), Job(3, 5)}, 2);
  EXPECT_FALSE(is_proper(contained));
  // Equal intervals do not *properly* contain each other.
  const Instance equal_jobs({Job(1, 5), Job(1, 5)}, 2);
  EXPECT_TRUE(is_proper(equal_jobs));
  // Same start, different completion -> proper containment.
  const Instance nested_start({Job(1, 5), Job(1, 8)}, 2);
  EXPECT_FALSE(is_proper(nested_start));
  // Same completion, different start -> proper containment.
  const Instance nested_end({Job(1, 8), Job(3, 8)}, 2);
  EXPECT_FALSE(is_proper(nested_end));
}

TEST(Classify, ProperOrderingProperty31) {
  // Property 3.1: in a proper instance sorted by start, completions are also
  // sorted.
  Rng rng(77);
  for (int rep = 0; rep < 50; ++rep) {
    // Generate a staircase (proper by construction).
    std::vector<Job> jobs;
    Time s = 0;
    for (int i = 0; i < 10; ++i) {
      s += rng.uniform_int(0, 5);
      const Time len = rng.uniform_int(5, 10);
      jobs.emplace_back(s, s + len);
      // Keep proper: next start >= current start, next completion >= current.
    }
    std::sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
      return a.start() < b.start();
    });
    // Enforce non-decreasing completion by clamping.
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      if (jobs[i].completion() < jobs[i - 1].completion())
        jobs[i].interval.completion = jobs[i - 1].completion();
      if (jobs[i].start() == jobs[i - 1].start())
        jobs[i].interval.completion = jobs[i - 1].completion();
      if (jobs[i].interval.length() <= 0)
        jobs[i].interval.completion = jobs[i].interval.start + 1;
    }
    // After clamping the instance may or may not be proper; if it is, check
    // the sorted-order property.
    const Instance inst(jobs, 2);
    if (!is_proper(inst)) continue;
    const auto ids = inst.ids_by_start();
    for (std::size_t k = 1; k < ids.size(); ++k) {
      EXPECT_LE(inst.job(ids[k - 1]).start(), inst.job(ids[k]).start());
      EXPECT_LE(inst.job(ids[k - 1]).completion(), inst.job(ids[k]).completion());
    }
  }
}

TEST(Classify, OneSided) {
  EXPECT_TRUE(is_one_sided(Instance({Job(0, 3), Job(0, 7), Job(0, 5)}, 2)));
  EXPECT_TRUE(is_one_sided(Instance({Job(1, 9), Job(4, 9), Job(0, 9)}, 2)));
  EXPECT_FALSE(is_one_sided(Instance({Job(0, 3), Job(1, 7)}, 2)));
  // classify() only flags one_sided for cliques (all one-sided sets sharing
  // an endpoint are cliques automatically).
  const auto c = classify(Instance({Job(0, 3), Job(0, 7), Job(0, 5)}, 2));
  EXPECT_TRUE(c.clique);
  EXPECT_TRUE(c.one_sided);
  EXPECT_FALSE(c.proper);  // [0,3) properly contained in [0,7)
}

TEST(Classify, ProperClique) {
  const auto c = classify(Instance({Job(0, 5), Job(2, 7), Job(4, 9)}, 2));
  EXPECT_TRUE(c.clique);  // all contain time 4
  EXPECT_TRUE(c.proper);
  EXPECT_TRUE(c.proper_clique());
}

TEST(Components, SplitsAtGaps) {
  const Instance inst({Job(0, 4), Job(2, 6), Job(8, 10), Job(9, 12)}, 2);
  const auto comps = connected_components(inst);
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<JobId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<JobId>{2, 3}));
}

TEST(Components, TouchingJobsAreSeparateComponents) {
  // [0,5) and [5,9) do not overlap -> two components.
  const Instance inst({Job(0, 5), Job(5, 9)}, 2);
  EXPECT_EQ(connected_components(inst).size(), 2u);
}

TEST(Components, BridgingJobMergesComponents) {
  const Instance inst({Job(0, 3), Job(6, 9), Job(2, 7)}, 2);
  const auto comps = connected_components(inst);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 3u);
}

TEST(Components, SolvePerComponentStitchesSchedules) {
  const Instance inst({Job(0, 4), Job(2, 6), Job(8, 10), Job(9, 12)}, 2);
  // Trivial per-component solver: everything on machine 0.
  const Schedule s = solve_per_component_parallel(
      inst,
      [](const Instance& sub) {
        Schedule part(sub.size());
        for (std::size_t j = 0; j < sub.size(); ++j)
          part.assign(static_cast<JobId>(j), 0);
        return part;
      },
      /*threads=*/1);
  // Jobs 0,1 on one machine; jobs 2,3 on a different machine.
  EXPECT_EQ(s.machine_of(0), s.machine_of(1));
  EXPECT_EQ(s.machine_of(2), s.machine_of(3));
  EXPECT_NE(s.machine_of(0), s.machine_of(2));
  EXPECT_EQ(s.throughput(), 4);
}

// Property: components partition the job set, and jobs in different
// components never overlap.
TEST(Components, PartitionPropertyOnRandomInstances) {
  Rng rng(99);
  for (int rep = 0; rep < 100; ++rep) {
    const int n = static_cast<int>(rng.uniform_int(1, 20));
    std::vector<Job> jobs;
    for (int i = 0; i < n; ++i) {
      const Time s = rng.uniform_int(0, 60);
      jobs.emplace_back(s, s + rng.uniform_int(1, 10));
    }
    const Instance inst(std::move(jobs), 2);
    const auto comps = connected_components(inst);

    std::vector<int> comp_of(inst.size(), -1);
    std::size_t total = 0;
    for (std::size_t c = 0; c < comps.size(); ++c) {
      for (JobId j : comps[c]) {
        EXPECT_EQ(comp_of[static_cast<std::size_t>(j)], -1);
        comp_of[static_cast<std::size_t>(j)] = static_cast<int>(c);
      }
      total += comps[c].size();
    }
    EXPECT_EQ(total, inst.size());
    for (std::size_t a = 0; a < inst.size(); ++a) {
      for (std::size_t b = a + 1; b < inst.size(); ++b) {
        if (inst.jobs()[a].interval.overlaps(inst.jobs()[b].interval)) {
          EXPECT_EQ(comp_of[a], comp_of[b]);
        }
      }
    }
  }
}

}  // namespace
}  // namespace busytime
