#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "inject/campaign.hpp"

namespace ftbesst::core {
namespace {

/// Small test machine: 8-node fat-tree, 2 ranks per node.
ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(2, 4, 1);
  ArchBEO arch("testmachine", topo, net::CommParams{}, 2);
  ft::FtiConfig fti;
  fti.group_size = 2;
  fti.node_size = 2;
  arch.set_fti(fti);
  return arch;
}

/// App: N timesteps of a constant-cost kernel + checkpoint every `period`.
AppBEO make_app(int timesteps, int period, std::int64_t ranks = 4) {
  AppBEO app("toy", ranks);
  for (int step = 1; step <= timesteps; ++step) {
    app.compute("work", {static_cast<double>(ranks)});
    app.end_timestep();
    if (period > 0 && step % period == 0)
      app.checkpoint(ft::Level::kL1, "ckpt_l1",
                     {static_cast<double>(ranks)});
  }
  return app;
}

TEST(BspEngine, DeterministicTotalsAndTrace) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(2.0));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(5.0));
  const AppBEO app = make_app(10, 5);
  const RunResult r = run_bsp(app, arch);
  // 10 * 2s compute + 2 * 5s checkpoints.
  EXPECT_DOUBLE_EQ(r.total_seconds, 30.0);
  ASSERT_EQ(r.timestep_end_times.size(), 10u);
  EXPECT_DOUBLE_EQ(r.timestep_end_times[0], 2.0);
  EXPECT_DOUBLE_EQ(r.timestep_end_times[4], 10.0);   // before 1st ckpt
  EXPECT_DOUBLE_EQ(r.timestep_end_times[5], 17.0);   // 10 + 5 + 2
  EXPECT_EQ(r.checkpoint_timesteps, (std::vector<int>{5, 10}));
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.faults, 0);
}

TEST(BspEngine, MissingKernelThrows) {
  ArchBEO arch = make_arch();
  const AppBEO app = make_app(1, 0);
  EXPECT_THROW((void)run_bsp(app, arch), std::out_of_range);
}

// Kernels are resolved when the program is priced, before any instruction
// runs; every entry point still reports an unbound kernel as out_of_range.
TEST(EngineErrors, UnboundKernelIsOutOfRangeFromEveryEntryPoint) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  arch.set_fault_process(ft::FaultProcess(1e6, 1.0));
  const AppBEO app = make_app(2, 1);  // "ckpt_l1" is unbound
  EngineOptions opt;
  EXPECT_THROW((void)run_bsp(app, arch, opt), std::out_of_range);
  EXPECT_THROW((void)run_des(app, arch, opt), std::out_of_range);
  EXPECT_THROW((void)run_ensemble(app, arch, opt, 4), std::out_of_range);
  inject::CampaignOptions campaign;
  campaign.trials = 3;
  for (bool use_des : {true, false}) {
    campaign.use_des = use_des;
    EXPECT_THROW((void)inject::run_campaign(app, arch, campaign),
                 std::out_of_range)
        << "use_des=" << use_des;
  }
}

// ...but the argument errors that were raised before any instruction ran
// still win over an unbound kernel.
TEST(EngineErrors, InvalidArgumentsWinOverUnboundKernel) {
  ArchBEO arch = make_arch();  // capacity 16 ranks, no fault process
  inject::CampaignOptions campaign;
  campaign.trials = 2;

  const AppBEO too_big = make_app(1, 0, /*ranks=*/64);  // "work" unbound
  EXPECT_THROW((void)run_bsp(too_big, arch), std::invalid_argument);
  EXPECT_THROW((void)run_des(too_big, arch), std::invalid_argument);
  EXPECT_THROW((void)run_ensemble(too_big, arch, EngineOptions{}, 3),
               std::invalid_argument);
  EXPECT_THROW((void)inject::run_campaign(too_big, arch, campaign),
               std::invalid_argument);

  const AppBEO app = make_app(2, 0);  // "work" unbound
  EngineOptions injected;
  injected.inject_faults = true;  // but the architecture has no process
  EXPECT_THROW((void)run_bsp(app, arch, injected), std::invalid_argument);
  EXPECT_THROW((void)run_des(app, arch, injected), std::invalid_argument);
  EXPECT_THROW((void)run_ensemble(app, arch, injected, 3),
               std::invalid_argument);
  for (bool use_des : {true, false}) {
    campaign.use_des = use_des;
    EXPECT_THROW((void)inject::run_campaign(app, arch, campaign),
                 std::invalid_argument)
        << "use_des=" << use_des;
  }

  arch.set_fault_process(ft::FaultProcess(1e6, 1.0));
  EngineOptions des_network = injected;
  des_network.use_des_network = true;
  EXPECT_THROW((void)run_des(app, arch, des_network), std::invalid_argument);
  campaign.use_des = true;
  campaign.engine.use_des_network = true;
  EXPECT_THROW((void)inject::run_campaign(app, arch, campaign),
               std::invalid_argument);
}

// A malformed replay trace is rejected up front by every entry point of
// both engines, through the same validation (inject::validate_schedule).
TEST(EngineErrors, MalformedReplayTraceIsInvalidEverywhere) {
  ArchBEO arch = make_arch();  // 8 nodes; FTI node_size 2
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(1.0));
  const AppBEO app = make_app(4, 2, /*ranks=*/8);  // 4 fault nodes
  auto strike = [](double time, std::int64_t node) {
    ft::FaultEvent ev;
    ev.time = time;
    ev.node = node;
    return ev;
  };
  // The out-of-range node strikes after the first checkpoint, so a run
  // that skipped validation would reach recovery with it.
  const std::vector<std::pair<const char*, ft::FaultEvent>> traces = {
      {"NaN time", strike(std::nan(""), 0)},
      {"negative time", strike(-5.0, 0)},
      {"node out of range", strike(3.5, 1000)}};
  for (const auto& [what, ev] : traces) {
    EngineOptions opt;
    opt.inject_faults = true;
    opt.fault_trace = {ev};
    EXPECT_THROW((void)run_bsp(app, arch, opt), std::invalid_argument) << what;
    EXPECT_THROW((void)run_des(app, arch, opt), std::invalid_argument) << what;
    inject::CampaignOptions campaign;
    campaign.trials = 2;
    campaign.engine = opt;
    for (bool use_des : {true, false}) {
      campaign.use_des = use_des;
      EXPECT_THROW((void)inject::run_campaign(app, arch, campaign),
                   std::invalid_argument)
          << what << ", use_des=" << use_des;
    }
  }
}

TEST(BspEngine, TooManyRanksThrows) {
  ArchBEO arch = make_arch();  // capacity 16
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  const AppBEO app = make_app(1, 0, /*ranks=*/64);
  EXPECT_THROW((void)run_bsp(app, arch), std::invalid_argument);
}

TEST(BspEngine, FaultInjectionRequiresFaultProcess) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  const AppBEO app = make_app(2, 0);
  EngineOptions opt;
  opt.inject_faults = true;
  EXPECT_THROW((void)run_bsp(app, arch, opt), std::invalid_argument);
}

TEST(BspEngine, CommInstructionsUseNetworkModel) {
  ArchBEO arch = make_arch();
  AppBEO app("comm", 8);
  app.allreduce(1024).barrier().neighbor_exchange(6, 512).end_timestep();
  const RunResult r = run_bsp(app, arch);
  const double expected = arch.comm().allreduce_time(8, 1024) +
                          arch.comm().barrier_time(8) +
                          arch.comm().neighbor_exchange_time(8, 6, 512);
  EXPECT_NEAR(r.total_seconds, expected, 1e-12);
}

TEST(DesEngine, MatchesBspExactlyInDeterministicMode) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(0.5));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(1.25));
  const AppBEO app = make_app(20, 4, 8);
  const RunResult bsp = run_bsp(app, arch);
  const RunResult des = run_des(app, arch);
  ASSERT_EQ(des.timestep_end_times.size(), bsp.timestep_end_times.size());
  for (std::size_t i = 0; i < bsp.timestep_end_times.size(); ++i)
    EXPECT_NEAR(des.timestep_end_times[i], bsp.timestep_end_times[i], 1e-8)
        << "timestep " << i;
  EXPECT_NEAR(des.total_seconds, bsp.total_seconds, 1e-8);
  EXPECT_EQ(des.checkpoint_timesteps, bsp.checkpoint_timesteps);
}

TEST(DesEngine, MatchesBspWithCommInstructions) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(0.1));
  AppBEO app("mix", 8);
  for (int step = 1; step <= 5; ++step) {
    app.compute("work", {});
    app.neighbor_exchange(6, 2048);
    app.allreduce(8);
    app.end_timestep();
  }
  const RunResult bsp = run_bsp(app, arch);
  const RunResult des = run_des(app, arch);
  EXPECT_NEAR(des.total_seconds, bsp.total_seconds, 1e-8);
}

TEST(DesEngine, RejectsFaultInjection) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  EngineOptions opt;
  opt.inject_faults = true;
  EXPECT_THROW((void)run_des(make_app(1, 0), arch, opt),
               std::invalid_argument);
}

TEST(MonteCarlo, NoisyModelsProduceSpreadCenteredOnPrediction) {
  ArchBEO arch = make_arch();
  auto base = std::make_shared<model::ConstantModel>(1.0);
  arch.bind_kernel("work", std::make_shared<model::NoisyModel>(base, 0.1));
  const AppBEO app = make_app(50, 0);
  const EnsembleResult ens = run_ensemble(app, arch, EngineOptions{}, 40);
  EXPECT_EQ(ens.totals.size(), 40u);
  EXPECT_NEAR(ens.total.mean, 50.0, 2.0);
  EXPECT_GT(ens.total.stddev, 0.0);
  EXPECT_EQ(ens.incomplete_trials, 0u);
  ASSERT_EQ(ens.mean_timestep_end.size(), 50u);
  EXPECT_NEAR(ens.mean_timestep_end[24], 25.0, 1.5);
}

TEST(MonteCarlo, DeterministicModelsGiveZeroSpread) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(1.0));
  const EnsembleResult ens =
      run_ensemble(make_app(5, 0), arch, EngineOptions{}, 8);
  EXPECT_DOUBLE_EQ(ens.total.stddev, 0.0);
  EXPECT_DOUBLE_EQ(ens.total.mean, 5.0);
  EXPECT_THROW(run_ensemble(make_app(5, 0), arch, EngineOptions{}, 0),
               std::invalid_argument);
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  AppBEO ft_app(int timesteps, int period) {
    AppBEO app = make_app(timesteps, period);
    return app;
  }
};

TEST_F(FaultInjectionTest, NoFtRestartsFromScratch) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  // One fault guaranteed inside the run: node MTBF chosen so system MTBF
  // ~ 40 s over a 200 s fault-free run.
  arch.set_fault_process(ft::FaultProcess(40.0 * 8, 1.0));
  const AppBEO app = make_app(20, /*no ckpt*/ 0);
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.seed = 3;
  const RunResult r = run_bsp(app, arch, opt);
  EXPECT_GT(r.faults, 0);
  EXPECT_EQ(r.rollbacks, 0);  // nothing to roll back to
  EXPECT_EQ(r.full_restarts, r.faults);
  EXPECT_GT(r.total_seconds, 200.0);  // lost work + downtime
}

TEST_F(FaultInjectionTest, CheckpointsConvertRestartsToRollbacks) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  arch.bind_kernel("ckpt_l4", std::make_shared<model::ConstantModel>(1.0));
  arch.set_fault_process(ft::FaultProcess(40.0 * 8, 1.0));
  AppBEO app("toy", 4);
  for (int step = 1; step <= 20; ++step) {
    app.compute("work", {});
    app.end_timestep();
    if (step % 2 == 0)
      app.checkpoint(ft::Level::kL4, "ckpt_l4", {});
  }
  EngineOptions opt;
  opt.inject_faults = true;
  opt.downtime_seconds = 5.0;
  opt.seed = 3;
  const RunResult r = run_bsp(app, arch, opt);
  EXPECT_GT(r.faults, 0);
  EXPECT_GT(r.rollbacks, 0);
  EXPECT_TRUE(r.completed);
}

TEST_F(FaultInjectionTest, L1CannotRecoverNodeLossButL4Can) {
  // L1 checkpoints are useless against node loss (full restarts); L4
  // checkpoints recover (rollbacks). Aggregate over seeds so the assertion
  // does not hinge on one fault-timeline draw.
  auto run_with_level = [&](ft::Level level, std::uint64_t seed) {
    ArchBEO arch = make_arch();
    arch.bind_kernel("work", std::make_shared<model::ConstantModel>(5.0));
    const std::string ck = level == ft::Level::kL1 ? "ckpt_l1" : "ckpt_l4";
    arch.bind_kernel(ck, std::make_shared<model::ConstantModel>(0.5));
    // 2 nodes at 40 s node-MTBF -> 20 s system MTBF over a ~100 s run.
    arch.set_fault_process(ft::FaultProcess(40.0, 1.0));
    AppBEO app("toy", 4);
    for (int step = 1; step <= 20; ++step) {
      app.compute("work", {});
      app.end_timestep();
      if (step % 2 == 0) app.checkpoint(level, ck, {});
    }
    EngineOptions opt;
    opt.inject_faults = true;
    opt.seed = seed;
    return run_bsp(app, arch, opt);
  };
  int l1_restarts = 0, l1_rollbacks = 0, l4_restarts = 0, l4_rollbacks = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const RunResult l1 = run_with_level(ft::Level::kL1, seed);
    const RunResult l4 = run_with_level(ft::Level::kL4, seed);
    l1_restarts += l1.full_restarts;
    l1_rollbacks += l1.rollbacks;
    l4_restarts += l4.full_restarts;
    l4_rollbacks += l4.rollbacks;
  }
  EXPECT_GT(l1_restarts, 0);
  EXPECT_EQ(l1_rollbacks, 0);
  EXPECT_GT(l4_rollbacks, 0);
  // L4 full restarts can only come from faults striking before the first
  // checkpoint completes; L1 restarts on every node loss.
  EXPECT_GT(l1_restarts, l4_restarts);
}

TEST_F(FaultInjectionTest, HorizonGuardMarksIncomplete) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(100.0));
  arch.set_fault_process(ft::FaultProcess(8.0 * 8, 1.0));  // MTBF << phase
  const AppBEO app = make_app(10, 0);
  EngineOptions opt;
  opt.inject_faults = true;
  opt.max_sim_seconds = 10000.0;
  const RunResult r = run_bsp(app, arch, opt);
  EXPECT_FALSE(r.completed);
}

TEST(RestartModels, RollbackPaysBoundRestartCost) {
  ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  arch.bind_kernel("ckpt_l4", std::make_shared<model::ConstantModel>(0.0));
  arch.bind_restart(ft::Level::kL4,
                    std::make_shared<model::ConstantModel>(42.0));
  // 2 nodes at 60 s node-MTBF -> 30 s system MTBF over a 100 s run.
  arch.set_fault_process(ft::FaultProcess(60.0, 1.0));
  AppBEO app("toy", 4);
  for (int step = 1; step <= 10; ++step) {
    app.compute("work", {});
    app.end_timestep();
    app.checkpoint(ft::Level::kL4, "ckpt_l4", {});
  }
  int total_faults = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EngineOptions opt;
    opt.inject_faults = true;
    opt.downtime_seconds = 0.0;
    opt.seed = seed;
    const RunResult r = run_bsp(app, arch, opt);
    total_faults += r.faults;
    if (r.rollbacks > 0 && r.completed) {
      // Every completed rollback paid the 42 s restart model.
      EXPECT_GE(r.total_seconds, 100.0 + 42.0 * r.rollbacks);
    }
  }
  EXPECT_GT(total_faults, 0);
}

}  // namespace
}  // namespace ftbesst::core
