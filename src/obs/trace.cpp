#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/clock.hpp"
#include "util/json.hpp"

namespace ftbesst::obs {

namespace {

constexpr std::size_t kRingCapacity = 8192;  // records per thread

struct Ring {
  std::mutex mu;  // uncontended except while an export walks the ring
  std::vector<SpanRecord> buf;
  std::size_t next = 0;      // write cursor
  std::uint64_t written = 0;  // lifetime record count (dropped = written - kept)
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  // current nesting depth, only touched by owner

  void push(const SpanRecord& r) {
    std::lock_guard<std::mutex> lk(mu);
    if (buf.size() < kRingCapacity) {
      buf.push_back(r);
    } else {
      buf[next] = r;
      next = (next + 1) % kRingCapacity;
    }
    ++written;
  }
};

class TraceRegistry {
 public:
  std::uint32_t attach(Ring* r) {
    std::lock_guard<std::mutex> lk(mu_);
    rings_.push_back(r);
    return next_tid_++;
  }

  void detach(Ring* r) {
    std::lock_guard<std::mutex> lk(mu_);
    rings_.erase(std::remove(rings_.begin(), rings_.end(), r), rings_.end());
    std::lock_guard<std::mutex> rlk(r->mu);
    append_ordered(*r, retired_);
    retired_dropped_ += r->written - r->buf.size();
  }

  TraceSnapshot collect() {
    std::lock_guard<std::mutex> lk(mu_);
    TraceSnapshot snap;
    snap.spans = retired_;
    snap.dropped = retired_dropped_;
    for (Ring* r : rings_) {
      std::lock_guard<std::mutex> rlk(r->mu);
      append_ordered(*r, snap.spans);
      snap.dropped += r->written - r->buf.size();
    }
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lk(mu_);
    retired_.clear();
    retired_dropped_ = 0;
    for (Ring* r : rings_) {
      std::lock_guard<std::mutex> rlk(r->mu);
      r->buf.clear();
      r->next = 0;
      r->written = 0;
    }
  }

 private:
  // Copy a ring's records oldest-first (the ring is a circular buffer once
  // full, so start at the write cursor).
  static void append_ordered(const Ring& r, std::vector<SpanRecord>& out) {
    const std::size_t n = r.buf.size();
    for (std::size_t i = 0; i < n; ++i)
      out.push_back(r.buf[(r.next + i) % n]);
  }

  std::mutex mu_;
  std::vector<Ring*> rings_;
  std::vector<SpanRecord> retired_;
  std::uint64_t retired_dropped_ = 0;
  std::uint32_t next_tid_ = 0;
};

TraceRegistry& trace_registry() {
  static TraceRegistry r;
  return r;
}

struct RingOwner {
  Ring ring;
  RingOwner() { ring.tid = trace_registry().attach(&ring); }
  ~RingOwner() { trace_registry().detach(&ring); }
};

Ring& local_ring() {
  thread_local RingOwner owner;
  return owner.ring;
}

}  // namespace

void Span::begin(const char* name) noexcept {
  name_ = name;
  start_ = now_ns();
  ++local_ring().depth;
}

namespace detail {

void span_end(const char* name, std::uint64_t start_ns) noexcept {
  const std::uint64_t end_ns = now_ns();
  Ring& ring = local_ring();
  if (ring.depth > 0) --ring.depth;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  rec.tid = ring.tid;
  rec.depth = ring.depth;
  ring.push(rec);
}

void trace_touch() { trace_registry(); }

}  // namespace detail

TraceSnapshot collect_spans() { return trace_registry().collect(); }

void trace_reset() { trace_registry().reset(); }

void write_chrome_trace(std::ostream& os) {
  const TraceSnapshot snap = collect_spans();
  // The envelope's two keys in sorted order, so the whole text is canonical
  // JSON: Json::parse(text).dump() == text.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  // One event value at a time, so export never holds every span as a JSON
  // object at once.
  std::string event;
  bool first = true;
  for (const SpanRecord& r : snap.spans) {
    if (!r.name) continue;
    if (!first) os << ',';
    first = false;
    event.clear();
    util::Json(util::JsonObject{
                   {"cat", "ftbesst"},
                   {"dur", static_cast<double>(r.dur_ns) / 1000.0},
                   {"name", r.name},
                   {"ph", "X"},
                   {"pid", 1},
                   {"tid", std::uint64_t{r.tid}},
                   {"ts", static_cast<double>(r.start_ns) / 1000.0}})
        .dump_to(event);
    os << event;
  }
  os << "]}";
}

void write_flame_summary(std::ostream& os) {
  const TraceSnapshot snap = collect_spans();
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint32_t min_depth = 0xffffffffu;
  };
  std::map<std::string, Agg> by_name;
  for (const SpanRecord& r : snap.spans) {
    if (!r.name) continue;
    Agg& a = by_name[r.name];
    ++a.count;
    a.total_ns += r.dur_ns;
    a.min_depth = std::min(a.min_depth, r.depth);
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    if (a.second.min_depth != b.second.min_depth)
      return a.second.min_depth < b.second.min_depth;
    return a.second.total_ns > b.second.total_ns;
  });
  os << "span                                      count      total_ms     mean_us\n";
  char line[160];
  for (const auto& [name, agg] : rows) {
    std::string label(static_cast<std::size_t>(agg.min_depth) * 2, ' ');
    label += name;
    const double total_ms = static_cast<double>(agg.total_ns) * 1e-6;
    const double mean_us =
        agg.count ? static_cast<double>(agg.total_ns) * 1e-3 /
                        static_cast<double>(agg.count)
                  : 0.0;
    std::snprintf(line, sizeof(line), "%-40s %7llu %13.3f %11.3f\n",
                  label.c_str(), static_cast<unsigned long long>(agg.count),
                  total_ms, mean_us);
    os << line;
  }
  if (snap.dropped)
    os << "(" << snap.dropped << " spans dropped to ring overwrite)\n";
}

}  // namespace ftbesst::obs
