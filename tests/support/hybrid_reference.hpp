// The epoch hybrid with its batch flush in the plainest form, a reference
// policy for the tests (not part of libbusytime).  Each batch becomes an Instance of its
// jobs in arrival order, solve_minbusy_auto(batch, 1) solves it, and the
// stitched schedule's machine groups are committed in arrival order, each
// onto a fresh pinned pool machine at its first job.  EpochHybrid solves
// each batch straight from its pending jobs instead; the tests hold its
// assignments and EngineStats to this reference.
#pragma once

#include "online/event.hpp"
#include "online/scheduler.hpp"
#include "support/online_oracle.hpp"

namespace busytime {

/// Replays `trace` through the reference hybrid on one pool: arrivals in
/// start order, merged with the retractions exactly as the stream driver
/// merges them (retractions first at equal instants), then one flush.
OracleReplay replay_hybrid_reference(const EventTrace& trace,
                                     const PolicyParams& params);

}  // namespace busytime
