#include "intervalgraph/sweepline.hpp"

#include <algorithm>
#include <cassert>

namespace busytime {

namespace {

struct Event {
  Time time;
  std::int64_t delta;  // +w at start, -w at completion
};

// Departures before arrivals at equal times (half-open intervals).
void sort_events(std::vector<Event>& events) {
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.delta < b.delta;
  });
}

}  // namespace

PeakOverlap peak_overlap(const std::vector<Interval>& intervals) {
  std::vector<std::int64_t> unit(intervals.size(), 1);
  const PeakWeight pw = peak_weighted_overlap(intervals, unit);
  return PeakOverlap{static_cast<int>(pw.weight), pw.time};
}

PeakWeight peak_weighted_overlap(const std::vector<Interval>& intervals,
                                 const std::vector<std::int64_t>& weights) {
  assert(intervals.size() == weights.size());
  std::vector<Event> events;
  events.reserve(intervals.size() * 2);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (intervals[i].empty()) continue;
    events.push_back({intervals[i].start, weights[i]});
    events.push_back({intervals[i].completion, -weights[i]});
  }
  sort_events(events);

  PeakWeight peak;
  std::int64_t current = 0;
  for (const auto& e : events) {
    current += e.delta;
    if (current > peak.weight) {
      peak.weight = current;
      peak.time = e.time;
    }
  }
  assert(current == 0);
  return peak;
}

}  // namespace busytime
