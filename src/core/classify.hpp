// Instance classification (Section 2 "Special cases").
//
// The algorithm dispatcher and the tests use these predicates to route an
// instance to the strongest applicable algorithm:
//
//   clique        — some time t is common to all jobs (interval graph is a
//                   clique);
//   proper        — no job interval properly contains another;
//   one-sided     — clique where all jobs share a start time or all share a
//                   completion time;
//   proper clique — both clique and proper.
#pragma once

#include <optional>

#include "core/instance.hpp"

namespace busytime {

/// True iff some time point lies in every job's half-open interval.
/// Equivalent to max(start) < min(completion).  O(n).
bool is_clique(const Instance& inst);

/// If the instance is a clique, returns a witness time common to all jobs
/// (the paper's time t in Section 4.1); otherwise nullopt.
std::optional<Time> clique_time(const Instance& inst);

/// True iff no job properly contains another.  O(n log n).
bool is_proper(const Instance& inst);

/// True iff all jobs share a start time, or all share a completion time.
bool is_one_sided(const Instance& inst);

/// Aggregated classification for dispatch/reporting: is_clique, then
/// is_proper (which builds the memoized start order), then is_one_sided for
/// a clique — three passes plus the order.  InstanceView reads the same
/// three answers off the one loop that copies a component out in start
/// order; classify() is the oracle its tests compare against.
struct InstanceClass {
  bool clique = false;
  bool proper = false;
  bool one_sided = false;
  bool proper_clique() const noexcept { return clique && proper; }
};
InstanceClass classify(const Instance& inst);

}  // namespace busytime
