#include "spans.hpp"

#include <algorithm>
#include <ostream>

#include "stats.hpp"

namespace perfbench {

namespace {

int layer_lane(std::string_view layer) {
  if (layer == "serve") return 1;
  if (layer == "engine") return 2;
  if (layer == "sweep") return 3;
  if (layer == "index") return 4;
  return 5;
}

}  // namespace

std::int64_t SpanRecorder::add(const Span& span) {
  if (!enabled_) return -1;
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::write_chrome_trace(std::ostream& out,
                                      std::size_t max_spans) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
        << "\",\"cat\":\"" << span.layer << "\",\"ph\":\"X\",\"ts\":"
        << number(span.start * 1e6)
        << ",\"dur\":" << number((span.end - span.start) * 1e6)
        << ",\"pid\":1,\"tid\":" << layer_lane(span.layer)
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent
        << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
}

std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, std::uint64_t first_request,
    std::uint64_t last_request) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end - spans[i].start;
  for (const Span& span : spans)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end - span.start;
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.request < first_request || span.request > last_request) continue;
    totals[std::string(span.layer)] += std::max(0.0, self[i]);
  }
  return totals;
}

}  // namespace perfbench
