// google-benchmark microbenches for the performance-critical substrates:
// DES event dispatch, Reed-Solomon coding, GF(256)
// arithmetic, model evaluation paths, and the coarse BE engine itself.

#include <benchmark/benchmark.h>

#include <memory>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "ft/fti_runtime.hpp"
#include "ft/gf256.hpp"
#include "ft/multilevel_opt.hpp"
#include "ft/reed_solomon.hpp"
#include "model/expr.hpp"
#include "model/table_model.hpp"
#include "net/des_network.hpp"
#include "net/des_torus.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

namespace {

using namespace ftbesst;

/// Self-rescheduling ticker used to stress the event queue.
class Ticker final : public sim::Component {
 public:
  Ticker(int remaining, sim::SimTime interval)
      : Component("ticker"), remaining_(remaining), interval_(interval) {}
  void init() override { schedule_self(interval_); }
  void handle_event(sim::PortId, std::unique_ptr<sim::Payload>) override {
    if (--remaining_ > 0) schedule_self(interval_);
  }

 private:
  int remaining_;
  sim::SimTime interval_;
};

void BM_PdesSerialDispatch(benchmark::State& state) {
  const auto events_per_ticker = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 64; ++i)
      sim.add_component<Ticker>(events_per_ticker,
                                static_cast<sim::SimTime>(3 + i % 7));
    const auto stats = sim.run();
    benchmark::DoNotOptimize(stats.events_processed);
  }
  state.SetItemsProcessed(state.iterations() * 64 * events_per_ticker);
}
BENCHMARK(BM_PdesSerialDispatch)->Arg(100)->Arg(1000);

void BM_Gf256Mul(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::uint8_t> xs(4096);
  for (auto& x : xs) x = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto _ : state) {
    std::uint8_t acc = 1;
    for (std::uint8_t x : xs) acc = ft::GF256::mul(acc, x | 1);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * xs.size());
}
BENCHMARK(BM_Gf256Mul);

void BM_ReedSolomonEncode(benchmark::State& state) {
  const auto shard_bytes = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  ft::ReedSolomon rs(4, 2);
  std::vector<std::vector<std::uint8_t>> data(
      4, std::vector<std::uint8_t>(shard_bytes));
  for (auto& shard : data)
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  for (auto _ : state) {
    auto parity = rs.encode(data);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(state.iterations() * 4 * shard_bytes);
}
BENCHMARK(BM_ReedSolomonEncode)->Arg(4096)->Arg(65536);

void BM_ReedSolomonReconstruct(benchmark::State& state) {
  const std::size_t shard_bytes = 65536;
  util::Rng rng(3);
  ft::ReedSolomon rs(4, 2);
  std::vector<std::vector<std::uint8_t>> data(
      4, std::vector<std::uint8_t>(shard_bytes));
  for (auto& shard : data)
    for (auto& b : shard) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  auto parity = rs.encode(data);
  std::vector<std::vector<std::uint8_t>> full = data;
  full.insert(full.end(), parity.begin(), parity.end());
  for (auto _ : state) {
    auto shards = full;
    std::vector<bool> present(6, true);
    shards[0].clear();
    present[0] = false;
    shards[4].clear();
    present[4] = false;
    rs.reconstruct(shards, present);
    benchmark::DoNotOptimize(shards);
  }
  state.SetBytesProcessed(state.iterations() * 6 * shard_bytes);
}
BENCHMARK(BM_ReedSolomonReconstruct);

void BM_ExprEval(benchmark::State& state) {
  util::Rng rng(4);
  const auto expr = model::Expr::random(rng, 2, 6);
  const std::vector<double> vars{15.0, 512.0};
  for (auto _ : state) benchmark::DoNotOptimize(expr.eval(vars));
}
BENCHMARK(BM_ExprEval);

void BM_TableModelLookup(benchmark::State& state) {
  model::Dataset d({"a", "b"});
  for (double a : {5.0, 10.0, 15.0, 20.0, 25.0})
    for (double b : {8.0, 64.0, 216.0, 512.0, 1000.0})
      d.add_row({a, b}, {a * b});
  const model::TableModel m(d, model::Interpolation::kMultilinear);
  const std::vector<double> q{12.5, 300.0};
  for (auto _ : state) benchmark::DoNotOptimize(m.predict(q));
}
BENCHMARK(BM_TableModelLookup);

void BM_BspEngineLuleshRun(benchmark::State& state) {
  const auto ranks = static_cast<std::int64_t>(state.range(0));
  auto topo = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
  core::ArchBEO arch("m", topo, net::CommParams{}, 36);
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.02));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(0.5));
  apps::LuleshConfig cfg;
  cfg.epr = 15;
  cfg.ranks = ranks;
  cfg.timesteps = 200;
  cfg.plan = {{ft::Level::kL1, 40}};
  cfg.fti.group_size = 4;
  cfg.fti.node_size = 2;
  const core::AppBEO app = apps::build_lulesh_fti(cfg);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    core::EngineOptions opt;
    opt.monte_carlo = true;
    opt.seed = ++seed;
    benchmark::DoNotOptimize(core::run_bsp(app, arch, opt));
  }
  state.SetItemsProcessed(state.iterations() * app.size());
}
BENCHMARK(BM_BspEngineLuleshRun)->Arg(64)->Arg(1000);

void BM_DesNetworkAllToOne(benchmark::State& state) {
  const auto senders = static_cast<net::NodeId>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    net::TwoStageFatTree topo(8, 16, 8);
    net::DesNetwork network(sim, topo, net::CommParams{});
    for (net::NodeId s = 1; s <= senders; ++s)
      network.send(s, 0, 65536, 0);
    sim.run();
    benchmark::DoNotOptimize(network.delivered());
  }
  state.SetItemsProcessed(state.iterations() * senders);
}
BENCHMARK(BM_DesNetworkAllToOne)->Arg(16)->Arg(64);

void BM_DesTorusRandomTraffic(benchmark::State& state) {
  util::Rng rng(9);
  for (auto _ : state) {
    sim::Simulation sim;
    net::Torus topo({8, 8});
    net::DesTorus network(sim, topo, net::CommParams{});
    for (int i = 0; i < 128; ++i)
      network.send(static_cast<net::NodeId>(rng.uniform_int(64)),
                   static_cast<net::NodeId>(rng.uniform_int(64)), 4096,
                   static_cast<sim::SimTime>(i));
    sim.run();
    benchmark::DoNotOptimize(network.delivered());
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_DesTorusRandomTraffic);

void BM_FtiRuntimeCheckpoint(benchmark::State& state) {
  const auto level = static_cast<ft::Level>(state.range(0));
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  ft::FtiRuntime rt(fti, 32);
  util::Rng rng(3);
  for (std::int64_t r = 0; r < 32; ++r) {
    ft::FtiRuntime::Blob blob(16384);
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.uniform_int(256));
    rt.protect(r, std::move(blob));
  }
  for (auto _ : state) benchmark::DoNotOptimize(rt.checkpoint(level));
  state.SetBytesProcessed(state.iterations() * 32 * 16384);
}
BENCHMARK(BM_FtiRuntimeCheckpoint)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

void BM_MultilevelOptimize(benchmark::State& state) {
  ft::MultilevelWorkload w;
  w.work = 36000;
  w.system_mtbf = 600;
  w.soft_fraction = 0.7;
  const ft::LevelSpec low{ft::Level::kL1, 0.5, 0.5};
  const ft::LevelSpec high{ft::Level::kL4, 20.0, 30.0};
  for (auto _ : state)
    benchmark::DoNotOptimize(ft::optimize_two_level(w, low, high));
}
BENCHMARK(BM_MultilevelOptimize);

}  // namespace

BENCHMARK_MAIN();
