// Recorded-fault-trace replay through the coarse engine.

#include <gtest/gtest.h>

#include <memory>

#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "net/topology.hpp"

namespace ftbesst::core {
namespace {

ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  ArchBEO arch("m", topo, net::CommParams{}, 4);
  ft::FtiConfig fti;
  fti.group_size = 2;
  fti.node_size = 2;
  arch.set_fti(fti);
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  arch.bind_kernel("ckpt_l4", std::make_shared<model::ConstantModel>(1.0));
  return arch;
}

AppBEO make_app() {
  AppBEO app("toy", 4);
  for (int step = 1; step <= 10; ++step) {
    app.compute("work", {});
    app.end_timestep();
    if (step % 2 == 0) app.checkpoint(ft::Level::kL4, "ckpt_l4", {});
  }
  return app;
}

ft::FaultEvent loss_at(double t, std::int64_t node = 0) {
  ft::FaultEvent ev;
  ev.time = t;
  ev.node = node;
  ev.kind = ft::FailureKind::kNodeLoss;
  return ev;
}

TEST(FaultReplay, DeterministicSingleFaultAccounting) {
  // Fault at t=35: two L4 checkpoints completed (t=22, ...); rollback.
  ArchBEO arch = make_arch();  // no fault process needed for replay
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.fault_trace = {loss_at(35.0)};
  const RunResult r = run_bsp(make_app(), arch, opt);
  EXPECT_EQ(r.faults, 1);
  EXPECT_EQ(r.rollbacks, 1);
  EXPECT_EQ(r.full_restarts, 0);
  // Fault-free total = 10*10 + 5*1 = 105. The step-2 checkpoint completes
  // at t=21; the fault at t=35 loses the 14 s since then and pays 5 s of
  // downtime: total = 105 + 14 + 5 = 124.
  EXPECT_DOUBLE_EQ(r.total_seconds, 124.0);
}

TEST(FaultReplay, FaultBeforeAnyCheckpointRestartsFromScratch) {
  ArchBEO arch = make_arch();
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 2.0;
  opt.fault_trace = {loss_at(7.0)};
  const RunResult r = run_bsp(make_app(), arch, opt);
  EXPECT_EQ(r.full_restarts, 1);
  // Lost 7 s + 2 s downtime on top of the clean 105.
  EXPECT_DOUBLE_EQ(r.total_seconds, 105.0 + 7.0 + 2.0);
}

TEST(FaultReplay, ExhaustedTraceRunsCleanAfterwards) {
  ArchBEO arch = make_arch();
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 1.0;
  opt.fault_trace = {loss_at(7.0), loss_at(9.0)};
  const RunResult r = run_bsp(make_app(), arch, opt);
  EXPECT_EQ(r.faults, 2);
  EXPECT_TRUE(r.completed);
  // Both faults hit before the first checkpoint: restart twice, then clean.
  EXPECT_EQ(r.full_restarts, 2);
}

TEST(FaultReplay, TracePrecedesFaultProcess) {
  // With both a (very aggressive) process and a one-event trace, only the
  // trace fires — the run is deterministic.
  ArchBEO arch = make_arch();
  arch.set_fault_process(ft::FaultProcess(1.0, 1.0));  // would thrash
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.fault_trace = {loss_at(35.0)};
  const RunResult a = run_bsp(make_app(), arch, opt);
  const RunResult b = run_bsp(make_app(), arch, opt);
  EXPECT_EQ(a.faults, 1);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_DOUBLE_EQ(a.total_seconds, 124.0);
}

TEST(FaultReplay, EmptyTraceReplaysZeroFaultsInBothEngines) {
  // A recorded trial with no faults is still a trace: replaying it must run
  // fault-free in both engines even though the architecture has a fault
  // process that would strike many times in 105 s.
  ArchBEO arch = make_arch();
  arch.set_fault_process(ft::FaultProcess(20.0));
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.max_sim_seconds = 1000.0;
  opt.fault_trace = std::vector<ft::FaultEvent>{};
  for (const bool des : {false, true}) {
    const RunResult r =
        des ? run_des(make_app(), arch, opt) : run_bsp(make_app(), arch, opt);
    EXPECT_EQ(r.faults, 0) << (des ? "des" : "bsp");
    EXPECT_TRUE(r.completed) << (des ? "des" : "bsp");
    EXPECT_DOUBLE_EQ(r.total_seconds, 105.0) << (des ? "des" : "bsp");
  }
}

TEST(FaultReplay, UnorderedTraceRejected) {
  ArchBEO arch = make_arch();
  EngineOptions opt;
  opt.inject_faults = true;
  opt.fault_trace = {loss_at(50.0), loss_at(10.0)};
  EXPECT_THROW((void)run_bsp(make_app(), arch, opt), std::invalid_argument);
}

TEST(FaultReplay, TraceWithoutInjectFlagIsIgnored) {
  ArchBEO arch = make_arch();
  EngineOptions opt;
  opt.fault_trace = {loss_at(35.0)};  // inject_faults left false
  const RunResult r = run_bsp(make_app(), arch, opt);
  EXPECT_EQ(r.faults, 0);
  EXPECT_DOUBLE_EQ(r.total_seconds, 105.0);
}

}  // namespace
}  // namespace ftbesst::core
