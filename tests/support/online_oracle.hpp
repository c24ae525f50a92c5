// A from-scratch oracle for the greedy online policies (FirstFit and
// BestFit), linked by the tests (not part of libbusytime).
//
// Each machine keeps the full list of jobs placed on it, with retracted
// runs cut at their retraction instant.  At every event the oracle
// recomputes from those lists alone which machines still run a job (a
// machine closes once none does), each machine's running count, and the
// busy time (union length) of the machine a placement or a retraction
// touches; placements, refunds and every EngineStats field follow from
// them.  It shares no state with MachinePool: no cached segment end, no
// running set, no slot indirection.  The events are merged exactly as the
// stream driver merges them: arrivals in start order, retractions first at
// equal instants.
#pragma once

#include "core/schedule.hpp"
#include "online/engine_stats.hpp"
#include "online/event.hpp"
#include "online/scheduler.hpp"

namespace busytime {

struct OracleReplay {
  Schedule schedule;
  EngineStats stats;
};

/// Replays `trace` through `policy` (kFirstFit or kBestFit; throws
/// std::invalid_argument otherwise).  Quadratic in the jobs per machine.
OracleReplay replay_greedy_oracle(const EventTrace& trace, OnlinePolicy policy);

}  // namespace busytime
