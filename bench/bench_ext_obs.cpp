// Extension bench: the cost of the observability layer itself, as
// machine-readable JSON.
//
// Measurements (per-op nanoseconds, median of repeated batches):
//   - counter.add() and histogram.observe() with obs enabled;
//   - the same calls with obs disabled (one relaxed load + branch);
//   - a no-obs baseline loop of identical shape (the loop without any
//     handle call) so both costs can be read as deltas over raw work;
//   - span enter/exit round trip, enabled and disabled.
//
// The disabled costs are the headline: instrumentation stays compiled into
// every hot path, so "near-free when off" is the contract scripts/check.sh
// gates (<2% on the pool sweep bench).

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "obs/obs.hpp"
#include "svc/json.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

constexpr std::size_t kOpsPerBatch = 1 << 20;
constexpr int kBatches = 9;

// Median ns/op over kBatches runs of fn(kOpsPerBatch).
template <typename Fn>
double median_ns_per_op(Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    fn(kOpsPerBatch);
    samples.push_back(seconds_since(start) * 1e9 /
                      static_cast<double>(kOpsPerBatch));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

volatile std::uint64_t g_sink = 0;

void baseline_loop(std::size_t ops) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ops; ++i) acc += i & 7;
  g_sink = acc;
}

void counter_loop(std::size_t ops) {
  static const obs::Counter c = obs::counter("bench.counter");
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    acc += i & 7;
    c.add();
  }
  g_sink = acc;
}

void histogram_loop(std::size_t ops) {
  static const obs::Histogram h =
      obs::histogram("bench.hist", {1.0, 2.0, 4.0, 8.0});
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    acc += i & 7;
    h.observe(static_cast<double>(i & 7));
  }
  g_sink = acc;
}

void span_loop(std::size_t ops) {
  // Spans are scoped regions, not per-element increments; measure the full
  // enter/exit round trip.  Far fewer iterations keeps the ring-buffer
  // overwrite cost in the measurement without flooding memory.
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    FTBESST_OBS_SPAN("bench.span");
    acc += i & 7;
  }
  g_sink = acc;
}

struct Costs {
  double counter_ns = 0;
  double histogram_ns = 0;
  double span_ns = 0;
};

Costs measure() {
  Costs c;
  c.counter_ns = median_ns_per_op(counter_loop);
  c.histogram_ns = median_ns_per_op(histogram_loop);
  c.span_ns = median_ns_per_op(span_loop);
  return c;
}

svc::Json costs_json(const Costs& c) {
  return svc::JsonObject{{"counter_add_ns", c.counter_ns},
                         {"histogram_observe_ns", c.histogram_ns},
                         {"span_roundtrip_ns", c.span_ns}};
}

}  // namespace

int main() {
  const double baseline_ns = median_ns_per_op(baseline_loop);

  obs::enable(false);
  const Costs off = measure();

  obs::enable(true);
  obs::reset();
  obs::trace_reset();
  const Costs on = measure();

  // Sanity: the enabled run must have recorded exactly what the loops did.
  const auto snap = obs::scrape();
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kOpsPerBatch) * kBatches;
  const bool totals_exact =
      snap.counter("bench.counter") == expected &&
      snap.histogram("bench.hist") != nullptr &&
      snap.histogram("bench.hist")->count == expected;

  const svc::Json report = svc::JsonObject{
      {"bench", "obs"},
      {"obs_compiled", obs::compiled()},
      {"ops_per_batch", kOpsPerBatch},
      {"batches", kBatches},
      {"baseline_loop_ns_per_op", baseline_ns},
      {"disabled", costs_json(off)},
      {"enabled", costs_json(on)},
      {"disabled_counter_overhead_ns", off.counter_ns - baseline_ns},
      {"enabled_totals_exact", totals_exact}};
  std::cout << report.dump() << "\n";
  return totals_exact ? 0 : 1;
}
