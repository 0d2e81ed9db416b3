#pragma once
// Span tracing: RAII scoped spans recorded into per-thread ring buffers.
//
// A Span costs one enabled() check when tracing is off.  When on, entry
// stamps the monotonic clock and exit appends a fixed-size record to the
// calling thread's ring (bounded: the oldest records are overwritten, the
// drop count is kept).  Rings of exited threads are folded into a retired
// list so short-lived worker spans survive.
//
// Export formats:
//   * Chrome trace-event JSON ("traceEvents" array of ph:"X" complete
//     events, timestamps in microseconds) — loadable in Perfetto or
//     chrome://tracing.
//   * A plain-text flamegraph-style summary: one line per span name,
//     indented by nesting depth, with count / total / mean columns.
//
// Span names must be string literals (or otherwise outlive the trace
// registry); only the pointer is stored.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "obs/metrics.hpp"  // enabled(), compiled()

namespace ftbesst::obs {

namespace detail {
void span_end(const char* name, std::uint64_t start_ns) noexcept;
void trace_touch();
}  // namespace detail

class Span {
 public:
  explicit Span(const char* name) noexcept {
    if (enabled()) begin(name);
  }
  ~Span() {
    if (name_) detail::span_end(name_, start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin(const char* name) noexcept;
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;    // sequential per-thread id, 0 = first thread seen
  std::uint32_t depth = 0;  // nesting depth at entry, 0 = top level
};

// Snapshot of every retained span (retired threads first, then live rings),
// plus the number of records lost to ring overwrites.
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::uint64_t dropped = 0;
};

TraceSnapshot collect_spans();

// {"displayTimeUnit":"ms","traceEvents":[...]} as canonical JSON (sorted
// keys, no whitespace, no trailing newline), ts/dur in microseconds with
// every digit of start_ns/1000 and dur_ns/1000.
void write_chrome_trace(std::ostream& os);

// Plain-text aggregate by span name, indented by minimum observed depth.
void write_flame_summary(std::ostream& os);

// Discard all retained spans (live rings and retired records).
void trace_reset();

}  // namespace ftbesst::obs
