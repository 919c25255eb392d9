#include "span_log.h"

#include <algorithm>
#include <cstdint>

namespace trainbench {

std::vector<std::int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ns - spans[i].start_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTotalsNs(
    const std::vector<Span>& spans) {
  const auto self = SelfTimesNs(spans);
  std::map<std::string, std::int64_t> totals;
  for (std::size_t i = 0; i < spans.size(); ++i)
    totals[spans[i].name] += self[i];
  return totals;
}

void AppendToTrace(const std::vector<const SpanLog*>& ranks, int first_iter,
                   dear::TraceRecorder* trace) {
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : ranks) {
    for (const Span& s : log->spans())
      if (s.iter >= first_iter) origin = std::min(origin, s.start_ns);
  }
  for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
    const auto pid = static_cast<std::int64_t>(rank);
    trace->SetProcessName(pid, "rank " + std::to_string(rank));
    trace->SetThreadName(pid, 0, "compute");
    const auto& spans = ranks[rank]->spans();
    for (const Span& s : spans) {
      if (s.iter < first_iter) continue;
      const char* parent = s.parent < 0
                               ? "none"
                               : spans[static_cast<std::size_t>(s.parent)].name;
      trace->Record({.name = s.name,
                     .category = "iter=" + std::to_string(s.iter) +
                                 " parent=" + parent,
                     .pid = pid,
                     .start = s.start_ns - origin,
                     .duration = s.end_ns - s.start_ns});
    }
  }
}

}  // namespace trainbench
