#pragma once
// In-memory spans around the benchmark's own calls into each layer, for
// the traced run. A span has a name, the layer it measures, start and end
// on the benchmark clock, the span that caused it, and the id of the
// request it belongs to. Spans are kept in memory and written out at the
// end as a chrome-trace JSON file; a layer's self time is its spans'
// duration minus the duration of their child spans.
//
// A child span may be measured by a separate, direct call into the layer
// below (the benchmark cannot see inside the library), so children are
// linked logically and their time is subtracted, not their interval.
//
// Not thread-safe: the benchmark records from its single generator thread.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
  std::string_view name;   // static string: "serve.request", "engine.plan"...
  std::string_view layer;  // "serve", "engine", "sweep", "index"
  double start = 0.0;      // seconds on the benchmark clock
  double end = 0.0;
  std::int64_t parent = -1;  // index of the causing span, -1 for a root
  std::uint64_t request = 0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Record `span`; returns its id, or -1 when recording is off.
  std::int64_t add(const Span& span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, one lane per layer);
  /// at most `max_spans` are written.
  void write_chrome_trace(std::ostream& out, std::size_t max_spans) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Total self time per layer over the spans of requests whose id is in
/// [first_request, last_request]: each span's duration minus its
/// children's durations (clamped at zero).
std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans, std::uint64_t first_request,
    std::uint64_t last_request);

}  // namespace perfbench
