// DES injection engine: agreement with the coarse engine on replayed
// traces, fold invariance under injection, horizon abandonment, and exact
// replay from a dumped fault log.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "inject/sdc.hpp"
#include "net/topology.hpp"
#include "support/test_seed.hpp"

namespace ftbesst::core {
namespace {

// Same toy fixture as the recovery-matrix tests: 4 ranks over 2 FTI nodes,
// 10 steps of 10 s work, a 1 s checkpoint after every 2nd step (clean
// total 105 s; checkpoints complete at t = 21, 42, 63, 84, 105).
ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  ArchBEO arch("m", topo, net::CommParams{}, 4);
  arch.set_fti(ft::FtiConfig{2, 2, 1});
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  arch.bind_kernel("ckpt", std::make_shared<model::ConstantModel>(1.0));
  return arch;
}

AppBEO make_app(ft::Level level = ft::Level::kL4) {
  AppBEO app("toy", 4);
  for (int step = 1; step <= 10; ++step) {
    app.compute("work", {});
    app.end_timestep();
    if (step % 2 == 0) app.checkpoint(level, "ckpt", {});
  }
  return app;
}

ft::FaultEvent event(ft::FailureKind kind, double t,
                     double detect_after = 0.0) {
  ft::FaultEvent ev;
  ev.time = t;
  ev.node = 0;
  ev.kind = kind;
  ev.detect_after = detect_after;
  return ev;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  for (double x : v) out.push_back(bits(x));
  return out;
}

// The recovery outcome, bit for bit: tallies, completion and the fault-log
// bytes. Both engines resolve faults through inject::resolve_fault, so this
// holds across engines too.
void expect_same_recovery(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.full_restarts, b.full_restarts);
  EXPECT_EQ(bits(a.lost_work_seconds), bits(b.lost_work_seconds));
  EXPECT_EQ(a.recoveries_by_level, b.recoveries_by_level);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.fault_log.to_text(), b.fault_log.to_text());
}

// Every RunResult field except the sim_events diagnostic, bit for bit.
void expect_bit_identical(const RunResult& a, const RunResult& b) {
  expect_same_recovery(a, b);
  EXPECT_EQ(bits(a.total_seconds), bits(b.total_seconds));
  EXPECT_EQ(bits(a.timestep_end_times), bits(b.timestep_end_times));
  EXPECT_EQ(a.checkpoint_timesteps, b.checkpoint_timesteps);
  EXPECT_EQ(a.instructions_executed, b.instructions_executed);
}

// Coarse vs DES: the same recovery; the makespan agrees up to the DES
// clock's tick rounding.
void expect_engines_agree(const RunResult& bsp, const RunResult& des) {
  expect_same_recovery(bsp, des);
  EXPECT_DOUBLE_EQ(bsp.total_seconds, des.total_seconds);
}

TEST(DesInject, MatchesCoarseEngineOnReplayedLoss) {
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.fault_trace = {event(ft::FailureKind::kNodeLoss, 35.0)};
  const RunResult bsp = run_bsp(make_app(), make_arch(), opt);
  const RunResult des = run_des(make_app(), make_arch(), opt);
  expect_engines_agree(bsp, des);
  EXPECT_DOUBLE_EQ(des.total_seconds, 124.0);
  EXPECT_EQ(des.rollbacks, 1);
}

TEST(DesInject, MatchesCoarseEngineOnSilentCorruption) {
  // Corruption at t=30 detected at t=45: the DES actually executes the
  // corrupted window (taking — and then poisoning — the t=42 checkpoint);
  // the coarse engine charges the latency as outage. Both must land on the
  // same answer: restore t=21, resume at 50, replay 84 s -> 134.
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.fault_trace = {event(ft::FailureKind::kSilentCorruption, 30.0, 15.0)};
  const RunResult bsp = run_bsp(make_app(), make_arch(), opt);
  const RunResult des = run_des(make_app(), make_arch(), opt);
  expect_engines_agree(bsp, des);
  EXPECT_DOUBLE_EQ(des.total_seconds, 134.0);
  EXPECT_DOUBLE_EQ(des.lost_work_seconds, 24.0);
}

TEST(DesInject, FoldedInjectedRunIsBitIdenticalToUnfolded) {
  // Struck ranks stay in their fold class (recovery is coordinated), so
  // the folded run dispatches fewer events with every field unchanged.
  ArchBEO arch = make_arch();
  arch.set_fault_process(ft::FaultProcess(200.0, 0.5));
  arch.set_sdc_process(inject::SdcProcess(400.0, 2.0));
  const std::uint64_t base = test::test_seed(33);
  int faults = 0;
  for (std::uint64_t seed = base; seed < base + 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EngineOptions opt;
    opt.seed = seed;
    opt.inject_faults = true;
    opt.downtime_seconds = 3.0;
    opt.max_sim_seconds = 5000.0;
    opt.fold_symmetry = true;
    const RunResult folded = run_des(make_app(), arch, opt);
    opt.fold_symmetry = false;
    const RunResult unfolded = run_des(make_app(), arch, opt);
    expect_bit_identical(folded, unfolded);
    EXPECT_LT(folded.sim_events, unfolded.sim_events);
    EXPECT_TRUE(folded.completed);
    faults += folded.faults;
  }
  EXPECT_GT(faults, 0);
}

TEST(DesInject, Folded1000RankInjectedLuleshIsBitIdenticalToUnfolded) {
  // 1000 LULESH ranks over 500 FTI nodes with crash and SDC processes:
  // every struck node stays folded, so the folded run is two orders of
  // magnitude cheaper in events.
  constexpr int kTimesteps = 8;
  auto topo = std::make_shared<net::TwoStageFatTree>(16, 16, 8);
  ArchBEO arch("quartz_1k", topo, net::CommParams{}, 4);
  arch.set_fti(ft::FtiConfig{4, 2, 1});
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.5));
  for (int level = 1; level <= 4; ++level) {
    const auto l = static_cast<ft::Level>(level);
    arch.bind_kernel(apps::checkpoint_kernel(l),
                     std::make_shared<model::ConstantModel>(0.05 * level));
    arch.bind_restart(l, std::make_shared<model::ConstantModel>(0.1 * level));
  }
  arch.set_fault_process(ft::FaultProcess(1500.0, 0.3));
  arch.set_sdc_process(inject::SdcProcess(4000.0, 0.5));
  apps::LuleshConfig config;
  config.epr = 15;
  config.ranks = 1000;
  config.timesteps = kTimesteps;
  config.fti = ft::FtiConfig{4, 2, 1};
  config.plan = {{ft::Level::kL1, 2, false}, {ft::Level::kL2, 4, false}};
  const AppBEO app = apps::build_lulesh_fti(config);

  EngineOptions opt;
  opt.seed = test::test_seed(7);
  opt.inject_faults = true;
  opt.downtime_seconds = 1.0;
  opt.max_sim_seconds = 1000.0;
  opt.fold_symmetry = true;
  const RunResult folded = run_des(app, arch, opt);
  opt.fold_symmetry = false;
  const RunResult unfolded = run_des(app, arch, opt);
  expect_bit_identical(folded, unfolded);
  EXPECT_GT(folded.faults, 0);
  EXPECT_LT(folded.sim_events * 100, unfolded.sim_events);
}

TEST(DesInject, HorizonExceededAbandonsIncomplete) {
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.max_sim_seconds = 20.0;
  // Full restart at t=7 resumes at 12; the next step ends at 22 > 20.
  opt.fault_trace = {event(ft::FailureKind::kNodeLoss, 7.0)};
  const RunResult des = run_des(make_app(ft::Level::kL1), make_arch(), opt);
  EXPECT_FALSE(des.completed);
  const RunResult bsp = run_bsp(make_app(ft::Level::kL1), make_arch(), opt);
  EXPECT_FALSE(bsp.completed);
}

TEST(DesInject, DumpedFaultLogReplaysBitIdentically) {
  ArchBEO arch = make_arch();
  arch.set_fault_process(ft::FaultProcess(150.0, 0.5));
  arch.set_sdc_process(inject::SdcProcess(500.0, 1.0));
  EngineOptions opt;
  opt.seed = 91;
  opt.inject_faults = true;
  opt.downtime_seconds = 2.0;
  opt.max_sim_seconds = 5000.0;
  const RunResult sampled = run_des(make_app(), arch, opt);
  ASSERT_TRUE(sampled.completed);
  ASSERT_GT(sampled.faults, 0);

  // Round-trip the log through its text form, then feed it back as a
  // replay trace: the replayed run must reproduce the sampled one bit for
  // bit, on either engine-independent sampling state.
  const ft::FaultLog log =
      ft::FaultLog::from_text(sampled.fault_log.to_text());
  EngineOptions replay = opt;
  replay.fault_trace = log.to_trace(0);
  ASSERT_EQ(replay.fault_trace.size(), sampled.fault_log.size());
  const RunResult again = run_des(make_app(), arch, replay);
  expect_bit_identical(sampled, again);
}

}  // namespace
}  // namespace ftbesst::core
