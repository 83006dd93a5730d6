#pragma once
// In-memory span recorder for the benchmark's traced runs (--trace 1).
//
// Spans are recorded only around the benchmark's own calls into the clo
// modules — the libraries are not instrumented. Every span carries the id
// of the trace it belongs to and of the span that caused it; an Operation
// opens a new trace whose root span covers one unit of work (a timed
// operation, a set-up, an answer check or a layer probe). Spans stay in
// per-thread buffers until write_spans() merges them after all worker
// threads have joined.
//
// With tracing disabled (the default) a Span costs one relaxed load.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace clobench {

struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 for the root span of a trace
  const char* name = "";        ///< string literal or interned name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int thread = 0;
};

void set_tracing(bool on);
bool tracing();

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

/// RAII span around one call. `name` must outlive the recorder: pass a
/// string literal or a pointer returned by intern().
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  const char* name_ = "";
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::int64_t start_ns_ = 0;
};

/// RAII root span of a new trace: one per operation. Nested Operations
/// are not allowed (an operation is the unit a trace id stands for).
class Operation {
 public:
  explicit Operation(const char* name);
  ~Operation();
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

 private:
  bool active_ = false;
  std::size_t root_index_ = 0;  ///< the root's slot in the thread's buffer
};

/// Stable storage for a dynamically built span name.
const char* intern(const std::string& name);

/// Every span recorded so far, merged across threads. Call only after
/// every thread that recorded spans has been joined (or is idle).
std::vector<SpanRecord> collect_spans();

/// Aggregate of all spans with one name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double mean_ms() const { return count == 0 ? 0.0 : total_ms / count; }
};
SpanTotals totals(const std::vector<SpanRecord>& spans,
                  const std::string& name);

/// Measured cost of recording one span, in nanoseconds (a calibration loop
/// on a private buffer; the recorded spans are discarded).
double span_cost_ns();

/// Write the spans as JSON lines to `path`, after a first line holding
/// `header` (a JSON object). Returns false on I/O failure.
bool write_spans(const std::string& path, const std::string& header,
                 const std::vector<SpanRecord>& spans);

}  // namespace clobench
