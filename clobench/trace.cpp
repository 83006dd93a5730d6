#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>

namespace clobench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> stack;  ///< open span ids, innermost last
  std::uint64_t trace_id = 0;        ///< 0 = no operation open
  int thread = 0;
};

std::mutex g_buffers_mu;
// Every thread's buffer, kept alive past thread exit; guarded by
// g_buffers_mu.
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& buffer() {
  thread_local std::shared_ptr<ThreadBuffer> local = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    b->thread = static_cast<int>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *local;
}

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Span::Span(const char* name) {
  if (!tracing()) return;
  ThreadBuffer& b = buffer();
  active_ = true;
  name_ = name;
  trace_id_ = b.trace_id;
  span_id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_id_ = b.stack.empty() ? 0 : b.stack.back();
  b.stack.push_back(span_id_);
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadBuffer& b = buffer();
  b.stack.pop_back();
  b.spans.push_back(
      {trace_id_, span_id_, parent_id_, name_, start_ns_, end, b.thread});
}

Operation::Operation(const char* name) {
  if (!tracing()) return;
  ThreadBuffer& b = buffer();
  if (b.trace_id != 0) return;  // already inside an operation: one trace
  active_ = true;
  b.trace_id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  // The root span stays open on the buffer's stack until the destructor
  // closes it; children find it there as their parent.
  const std::uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  b.stack.push_back(id);
  root_index_ = b.spans.size();
  b.spans.push_back({b.trace_id, id, 0, name, now_ns(), 0, b.thread});
}

Operation::~Operation() {
  if (!active_) return;
  ThreadBuffer& b = buffer();
  b.stack.pop_back();
  b.spans[root_index_].end_ns = now_ns();
  b.trace_id = 0;
}

const char* intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

SpanTotals totals(const std::vector<SpanRecord>& spans,
                  const std::string& name) {
  SpanTotals t;
  for (const auto& s : spans) {
    if (name != s.name) continue;
    ++t.count;
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return t;
}

double span_cost_ns() {
  constexpr int kSpans = 20000;
  const bool was = tracing();
  set_tracing(true);
  ThreadBuffer& b = buffer();
  const std::size_t keep = b.spans.size();
  const std::int64_t begin = now_ns();
  {
    Operation op("trace.calibrate");
    for (int i = 0; i < kSpans; ++i) Span s("trace.calibrate.span");
  }
  const std::int64_t end = now_ns();
  b.spans.resize(keep);
  set_tracing(was);
  return static_cast<double>(end - begin) / kSpans;
}

bool write_spans(const std::string& path, const std::string& header,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << header << '\n';
  for (const auto& s : spans) {
    out << "{\"trace\":" << s.trace_id << ",\"span\":" << s.span_id
        << ",\"parent\":" << s.parent_id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"thread\":" << s.thread << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace clobench
