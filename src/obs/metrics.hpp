#pragma once
// Metrics registry: counters, gauges, and fixed-bucket histograms with
// thread-local sharded storage.
//
// Design
//   * Each thread that touches a counter or histogram owns a private shard
//     (an array of relaxed atomics).  Hot-path increments therefore never
//     contend; `scrape()` takes the registry mutex and sums across shards.
//     Shards of exited threads are folded into a `retired` shard so nothing
//     is lost.
//   * Handles (`Counter`, `Gauge`, `Histogram`) are trivially-copyable value
//     types holding a small id.  Registration (`obs::counter("name")`, ...)
//     is mutex-guarded and idempotent: the same name yields the same id, and
//     for histograms the first registration's bounds win.
//   * Disabled path: every handle operation starts with `if (!enabled())
//     return;` — a single relaxed atomic load and a predictable branch.
//     When the library is compiled out (`FTBESST_OBS=0`) `enabled()` is a
//     constant `false` and the calls vanish entirely.
//   * Exactness: increments use relaxed ordering; a scrape observes exact
//     totals for any work that happens-before it (e.g. everything submitted
//     to a TaskPool whose TaskGroup::wait returned, which synchronizes via
//     mutex/condvar).
//
// Metric names are plain strings; the convention used by the built-in
// instrumentation is dotted lower-case paths ("pool.tasks", "sim.events").

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

#ifndef FTBESST_OBS
#define FTBESST_OBS 1
#endif

namespace ftbesst::obs {

// True when the observability layer was compiled in (FTBESST_OBS=1).
constexpr bool compiled() { return FTBESST_OBS != 0; }

namespace detail {

extern std::atomic<bool> g_enabled;

inline constexpr std::uint32_t kInvalidId = 0xffffffffu;

void counter_add(std::uint32_t id, std::uint64_t delta) noexcept;
void gauge_set(std::uint32_t id, double value) noexcept;
void gauge_max(std::uint32_t id, double value) noexcept;
void hist_observe(std::uint32_t id, double value) noexcept;
void metrics_touch();

}  // namespace detail

// Runtime switch.  No-op (stays false) when compiled() is false.
void enable(bool on);

inline bool enabled() {
  if constexpr (!compiled()) return false;
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Handles.  Default-constructed handles are inert (invalid id).

class Counter {
 public:
  Counter() = default;
  void add(std::uint64_t delta = 1) const noexcept {
    if (enabled()) detail::counter_add(id_, delta);
  }

 private:
  friend Counter counter(std::string_view name);
  explicit Counter(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double value) const noexcept {
    if (enabled()) detail::gauge_set(id_, value);
  }
  // Raise the gauge to `value` if it is below it (load-mostly: a CAS is only
  // attempted on a new maximum, so repeated non-record observations stay
  // read-only).
  void max(double value) const noexcept {
    if (enabled()) detail::gauge_max(id_, value);
  }

 private:
  friend Gauge gauge(std::string_view name);
  explicit Gauge(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double value) const noexcept {
    if (enabled()) detail::hist_observe(id_, value);
  }

 private:
  friend Histogram histogram(std::string_view name,
                             std::vector<double> bounds);
  explicit Histogram(std::uint32_t id) : id_(id) {}
  std::uint32_t id_ = detail::kInvalidId;
};

// Registration.  Safe to call from any thread at any time; returns the same
// handle for the same name.  `bounds` are inclusive upper bucket bounds and
// must be strictly increasing; an implicit +inf overflow bucket is appended.
// Works even while disabled (registration is cold-path), so call sites can
// register once at startup and use the handles unconditionally.
Counter counter(std::string_view name);
Gauge gauge(std::string_view name);
Histogram histogram(std::string_view name, std::vector<double> bounds);

// ---------------------------------------------------------------------------
// Scraping.

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;          // upper bounds; buckets has one extra
  std::vector<std::uint64_t> buckets;  // size bounds.size() + 1 (overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  // Quantile estimate by linear interpolation inside the winning bucket
  // (overflow bucket clamps to its lower bound).  q in [0,1].  Returns 0
  // for an empty histogram.
  double quantile(double q) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool has_counter(std::string_view name) const;
  std::uint64_t counter(std::string_view name) const;  // 0 when absent
  double gauge(std::string_view name) const;           // 0 when absent
  const HistogramSnapshot* histogram(std::string_view name) const;

  // {"counters":{...},"gauges":{...},"histograms":{name:{"buckets":
  // [{"le","n"}...],"count","sum"}}}. The overflow bucket has "le": null,
  // and so does any gauge, sum or bound that is not finite.
  util::Json to_json() const;
};

// Sum all shards (live + retired) under the registry lock.
MetricsSnapshot scrape();

// Zero every shard, gauge, and histogram; names and ids survive.
void reset();

}  // namespace ftbesst::obs
