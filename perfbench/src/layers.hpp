// The traced pass: per-layer numbers from spans the benchmark records
// around direct calls into each layer's public entry points.
//
// Two kinds of span trees land in one TraceContext:
//
//  * replays — each kind of request of the workload, replayed as the
//    sequence of layer calls the served path makes (codec, load, view,
//    dispatch or replay, finalize, result codec), with the solve part run
//    on a pool worker exactly as Service::submit runs it, plus the loads of
//    a warm workload's handles.  Each request replay is paired with an
//    untraced served request of the same kind; the pairs give
//    trace.coverage and trace.overhead_ms.  The first kind's replays give
//    the timing of every layer its requests cross;
//  * probes — what no served request measures (dispatch at nproc and at
//    one thread, replay at one thread, solve against submit, the wire
//    overhead), and the layers the first kind's requests never cross, on
//    the workload's first input.
//
// In-process workloads also attach the program's own span tree of one
// request (SolverSpec::trace) beside the benchmark's.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Runs the replays and probes for `w`, recording spans into `rec` (each
/// span's value is its request id: request replays from 1, loads from 500,
/// probes from 1000), and
/// appends the per-layer metrics they yield to `out`.  For an in-process
/// workload, returns the program's own busytime-trace-v1 tree of one
/// request as a cross-check (null otherwise).  Throws when a served
/// request of the pass fails its check.
busytime::json::Value traced_pass(Workload& w, bool tiny,
                                  busytime::obs::TraceContext& rec,
                                  std::vector<Metric>& out);

}  // namespace perfbench
