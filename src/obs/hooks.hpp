// Glue between the request plumbing (api/request.hpp carries opaque obs
// pointers) and the obs layer proper: the three lookups every
// instrumentation site performs.  Kept out of api/request.hpp so the api
// headers stay free of obs includes.
#pragma once

#include <cstdint>

#include "api/request.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace busytime::obs {

/// The metrics registry of a request: the one its Service installed, or
/// null outside any Service (direct solve_minbusy_auto / replay_stream
/// calls), where instrumentation records nothing.
inline MetricsRegistry* metrics_of(const RequestContext* ctx) noexcept {
  return ctx != nullptr ? ctx->metrics : nullptr;
}

/// The request's span collector; null = tracing off.
inline TraceContext* trace_of(const RequestContext* ctx) noexcept {
  return ctx != nullptr ? ctx->trace.get() : nullptr;
}

/// Parent for a span opened by a layer that was not handed an explicit
/// parent id: the trace's current anchor (the enclosing "solve" span,
/// published by the run path) when set, else the request root.
inline std::uint32_t span_parent(const RequestContext* ctx) noexcept {
  if (ctx == nullptr || ctx->trace == nullptr) return 0;
  const std::uint32_t anchor = ctx->trace->anchor();
  return anchor != 0 ? anchor : ctx->trace_root;
}

}  // namespace busytime::obs
