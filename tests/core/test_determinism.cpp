// Scheduling-invariance contract of the shared-pool sweep path: for a fixed
// seed, run_ensemble and run_dse produce bit-identical results whether they
// run inline (threads=1) or fan out onto the shared task pool (threads=0),
// because per-trial / per-point seeds are derived before submission.

#include <gtest/gtest.h>

#include <memory>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/engine_bsp.hpp"
#include "core/montecarlo.hpp"
#include "core/workflow.hpp"

namespace ftbesst::core {
namespace {

ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(2, 4, 1);
  ArchBEO arch("testmachine", topo, net::CommParams{}, 2);
  ft::FtiConfig fti;
  fti.group_size = 2;
  fti.node_size = 2;
  arch.set_fti(fti);
  auto base = std::make_shared<model::ConstantModel>(1.0);
  arch.bind_kernel("work", std::make_shared<model::NoisyModel>(base, 0.2));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(0.5));
  arch.bind_restart(ft::Level::kL1,
                    std::make_shared<model::ConstantModel>(2.0));
  return arch;
}

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

TEST(Determinism, EnsembleSerialVsPoolBitIdentical) {
  const ArchBEO arch = make_arch();
  const AppBEO app = make_app(30, 5);
  EngineOptions opt;
  opt.seed = 42;
  const auto serial = run_ensemble(app, arch, opt, 24, /*threads=*/1);
  const auto pooled = run_ensemble(app, arch, opt, 24, /*threads=*/0);
  const auto hinted = run_ensemble(app, arch, opt, 24, /*threads=*/4);
  EXPECT_EQ(bit_difference(serial, pooled), "");
  EXPECT_EQ(bit_difference(serial, hinted), "");
}

TEST(Determinism, EnsembleWithFaultInjectionBitIdentical) {
  // Faulty trials run much longer than clean ones — the imbalanced case
  // dynamic claiming exists for. The schedule may differ; results may not.
  ArchBEO arch = make_arch();
  arch.set_fault_process(ft::FaultProcess(50.0, 1.0));
  const AppBEO app = make_app(40, 5);
  EngineOptions opt;
  opt.seed = 7;
  opt.inject_faults = true;
  opt.downtime_seconds = 1.0;
  const auto serial = run_ensemble(app, arch, opt, 16, /*threads=*/1);
  const auto pooled = run_ensemble(app, arch, opt, 16, /*threads=*/0);
  EXPECT_EQ(bit_difference(serial, pooled), "");
  EXPECT_GT(serial.mean_faults, 0.0);  // the scenario actually faulted
}

TEST(Determinism, DseSerialVsPoolBitIdentical) {
  const ArchBEO arch = make_arch();
  const std::vector<Scenario> scenarios{
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, 5}}},
  };
  const std::vector<std::vector<double>> points{{10, 4}, {20, 4}, {15, 2}};
  auto make_dse_app = [](const Scenario& scenario,
                         const std::vector<double>& params) {
    AppBEO app = make_app(static_cast<int>(params[0]),
                          scenario.plan.empty() ? 0 : 5,
                          static_cast<std::int64_t>(params[1]));
    return app;
  };
  EngineOptions opt;
  opt.seed = 2021;
  const auto serial =
      run_dse(scenarios, points, make_dse_app, arch, opt, 8, /*threads=*/1);
  const auto pooled =
      run_dse(scenarios, points, make_dse_app, arch, opt, 8, /*threads=*/0);
  ASSERT_EQ(serial.size(), pooled.size());
  ASSERT_EQ(serial.size(), scenarios.size() * points.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].scenario, pooled[i].scenario) << "point " << i;
    EXPECT_EQ(serial[i].params, pooled[i].params) << "point " << i;
    EXPECT_EQ(bit_difference(serial[i].ensemble, pooled[i].ensemble), "");
  }
}

TEST(Determinism, DsePointOrderMatchesSubmissionOrder) {
  // Pool scheduling must not reorder the returned points.
  const ArchBEO arch = make_arch();
  const std::vector<Scenario> scenarios{{"A", {}}, {"B", {}}};
  const std::vector<std::vector<double>> points{{5, 4}, {6, 4}};
  auto make_dse_app = [](const Scenario&, const std::vector<double>& params) {
    return make_app(static_cast<int>(params[0]), 0,
                    static_cast<std::int64_t>(params[1]));
  };
  const auto dse =
      run_dse(scenarios, points, make_dse_app, arch, EngineOptions{}, 2);
  ASSERT_EQ(dse.size(), 4u);
  EXPECT_EQ(dse[0].scenario, "A");
  EXPECT_EQ(dse[0].params, (std::vector<double>{5, 4}));
  EXPECT_EQ(dse[1].params, (std::vector<double>{6, 4}));
  EXPECT_EQ(dse[2].scenario, "B");
  EXPECT_EQ(dse[3].params, (std::vector<double>{6, 4}));
}

}  // namespace
}  // namespace ftbesst::core
