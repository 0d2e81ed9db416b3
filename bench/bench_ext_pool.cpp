// Extension bench: the shared task pool and the DES hot-path allocation
// cuts, as machine-readable JSON for the perf trajectory.
//
// Four measurements:
//   - pool task throughput (per-task submit/complete round trips);
//   - dynamically-claimed parallel_for throughput (the trial-claiming path);
//   - payload freelist allocation rate and hit ratio (vs the heap it cut);
//   - event-heap push/pop rate;
// plus the headline number: a miniature DSE sweep (scenarios x points x
// Monte-Carlo trials) run fully serial vs on the shared pool, with the
// means cross-checked bit-identical — the determinism contract — and the
// wall-clock speedup reported.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <vector>

#include "common.hpp"
#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/workflow.hpp"
#include "obs/obs.hpp"
#include "sim/detail/payload_pool.hpp"
#include "sim/event_heap.hpp"
#include "svc/json.hpp"
#include "util/number.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

double bench_pool_tasks(std::size_t tasks) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  util::TaskGroup group;
  for (std::size_t i = 0; i < tasks; ++i)
    group.run([&sink] { sink.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  const double elapsed = seconds_since(start);
  if (sink.load() != tasks) std::abort();
  return static_cast<double>(tasks) / elapsed;
}

double bench_parallel_for(std::size_t n) {
  std::atomic<std::uint64_t> sink{0};
  const auto start = Clock::now();
  util::parallel_for(n, [&sink](std::size_t i) {
    sink.fetch_add(i & 1, std::memory_order_relaxed);
  });
  return static_cast<double>(n) / seconds_since(start);
}

struct PayloadResult {
  double allocs_per_sec = 0;
  double hit_ratio = 0;
};

PayloadResult bench_payload_pool(std::size_t allocs) {
  sim::detail::payload_pool_trim();
  const auto before = sim::detail::payload_pool_stats();
  const auto start = Clock::now();
  std::uint64_t checksum = 0;
  for (std::size_t i = 0; i < allocs; ++i) {
    auto p = sim::box<std::uint64_t>(i);
    checksum += *sim::unbox<std::uint64_t>(p.get());
  }
  const double elapsed = seconds_since(start);
  if (checksum != allocs * (allocs - 1) / 2) std::abort();
  const auto after = sim::detail::payload_pool_stats();
  PayloadResult r;
  r.allocs_per_sec = static_cast<double>(allocs) / elapsed;
  r.hit_ratio = static_cast<double>(after.freelist_hits - before.freelist_hits) /
                static_cast<double>(after.allocations - before.allocations);
  return r;
}

double bench_event_heap(std::size_t events) {
  util::Rng rng(11);
  sim::EventHeap heap;
  heap.reserve(1024);
  const auto start = Clock::now();
  std::uint64_t processed = 0;
  // Steady-state queue of ~1k events: push one, pop one.
  for (std::size_t i = 0; i < 1024; ++i) {
    sim::Event ev;
    ev.time = static_cast<sim::SimTime>(rng.uniform_int(1u << 20));
    heap.push(std::move(ev));
  }
  for (std::size_t i = 0; i < events; ++i) {
    sim::Event ev = heap.pop();
    ev.time += static_cast<sim::SimTime>(rng.uniform_int(1u << 12));
    ev.src_seq = i;
    heap.push(std::move(ev));
    ++processed;
  }
  const double elapsed = seconds_since(start);
  if (processed != events) std::abort();
  return static_cast<double>(events) / elapsed;
}

struct SweepResult {
  double serial_seconds = 0;
  double pool_seconds = 0;
  bool bit_identical = false;
};

SweepResult bench_dse_sweep() {
  auto topo = std::make_shared<net::TwoStageFatTree>(2, 4, 1);
  core::ArchBEO arch("benchmachine", topo, net::CommParams{}, 2);
  ft::FtiConfig fti;
  fti.group_size = 2;
  fti.node_size = 2;
  arch.set_fti(fti);
  auto base = std::make_shared<model::ConstantModel>(1e-3);
  arch.bind_kernel("work", std::make_shared<model::NoisyModel>(base, 0.1));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(5e-3));

  const std::vector<core::Scenario> scenarios{
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, 10}}},
  };
  const std::vector<std::vector<double>> points{{200}, {400}, {600}, {800}};
  auto make_app = [](const core::Scenario& scenario,
                     const std::vector<double>& params) {
    core::AppBEO app("sweep", 4);
    const int steps = static_cast<int>(params[0]);
    for (int step = 1; step <= steps; ++step) {
      app.compute("work", {4.0});
      app.end_timestep();
      if (!scenario.plan.empty() && step % 10 == 0)
        app.checkpoint(ft::Level::kL1, "ckpt_l1", {4.0});
    }
    return app;
  };
  core::EngineOptions opt;
  opt.seed = 99;
  // FTBESST_BENCH_TRIALS scales the sweep for gating contexts where the
  // default mini run is too short to time reliably (scripts/check.sh's obs
  // overhead gate uses a bigger sample).
  std::size_t trials = 32;
  if (const char* e = std::getenv("FTBESST_BENCH_TRIALS"); e && *e) {
    const auto v = util::try_parse_number<std::size_t>(e);
    if (v && *v > 0) trials = *v;
  }
  const std::size_t kTrials = trials;

  SweepResult r;
  auto start = Clock::now();
  const auto serial =
      core::run_dse(scenarios, points, make_app, arch, opt, kTrials, 1);
  r.serial_seconds = seconds_since(start);
  start = Clock::now();
  const auto pooled =
      core::run_dse(scenarios, points, make_app, arch, opt, kTrials, 0);
  r.pool_seconds = seconds_since(start);

  r.bit_identical = serial.size() == pooled.size();
  for (std::size_t i = 0; r.bit_identical && i < serial.size(); ++i)
    r.bit_identical =
        std::memcmp(&serial[i].ensemble.total.mean,
                    &pooled[i].ensemble.total.mean, sizeof(double)) == 0 &&
        serial[i].ensemble.totals == pooled[i].ensemble.totals;
  return r;
}

}  // namespace

int main() {
  // Observe the bench itself when obs is on (FTBESST_OBS=1 in the
  // environment): the scrape below then reports what the pool did across
  // every measurement in this process.
  obs::reset();
  const auto wall_start = Clock::now();
  const double pool_tps = bench_pool_tasks(50000);
  const double pfor_ips = bench_parallel_for(2000000);
  const PayloadResult payload = bench_payload_pool(2000000);
  const double heap_eps = bench_event_heap(2000000);
  const SweepResult sweep = bench_dse_sweep();

  const auto workers = util::TaskPool::shared().worker_count();
  svc::JsonObject report{
      {"workers", static_cast<std::uint64_t>(workers)},
      {"pool_tasks_per_sec", pool_tps},
      {"parallel_for_items_per_sec", pfor_ips},
      {"payload_allocs_per_sec", payload.allocs_per_sec},
      {"payload_freelist_hit_ratio", payload.hit_ratio},
      {"event_heap_ops_per_sec", heap_eps},
      {"dse_serial_seconds", sweep.serial_seconds},
      {"dse_pool_seconds", sweep.pool_seconds},
      {"dse_speedup", sweep.serial_seconds / sweep.pool_seconds},
      {"dse_bit_identical", sweep.bit_identical},
      {"obs_enabled", obs::enabled()}};
  if (obs::enabled()) {
    const double wall = seconds_since(wall_start);
    const obs::MetricsSnapshot snap = obs::scrape();
    const double busy_s =
        static_cast<double>(snap.counter("pool.busy_ns")) * 1e-9;
    const double utilization =
        wall > 0.0 ? busy_s / (wall * static_cast<double>(workers)) : 0.0;
    report["obs"] = svc::JsonObject{
        {"pool_tasks", snap.counter("pool.tasks")},
        {"pool_steals", snap.counter("pool.steals")},
        {"pool_wakeups", snap.counter("pool.wakeups")},
        {"pool_busy_seconds", busy_s},
        {"pool_queue_high_water", snap.gauge("pool.queue_high_water")},
        {"worker_utilization", utilization}};
  }
  std::cout << svc::Json(std::move(report)).dump() << "\n";
  return sweep.bit_identical ? 0 : 1;
}
