#include "core/workflow.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "net/topology.hpp"

namespace ftbesst::core {
namespace {

model::Dataset linear_kernel_data(double slope) {
  model::Dataset d({"x", "ranks"});
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
    for (double r : {8.0, 64.0, 512.0})
      d.add_row({x, r}, {slope * x, slope * x * 1.01, slope * x * 0.99});
  return d;
}

TEST(DevelopModels, FitsEveryKernelAndReports) {
  std::map<std::string, model::Dataset> calib;
  calib.emplace("fast", linear_kernel_data(0.001));
  calib.emplace("slow", linear_kernel_data(0.5));
  model::FitOptions opt;
  opt.method = model::ModelMethod::kFeatureRegression;
  const ModelSuite suite = develop_models(calib, opt);
  EXPECT_EQ(suite.kernels.size(), 2u);
  ASSERT_EQ(suite.reports.size(), 2u);
  for (const auto& report : suite.reports)
    EXPECT_LT(report.fit.full_mape, 5.0) << report.kernel;
  EXPECT_THROW(develop_models({}, opt), std::invalid_argument);
}

TEST(DevelopModels, FirstFailingKernelInMapOrderIsRethrown) {
  // The kernels fit concurrently. Whichever fails first in time, the error
  // is the one the serial loop met first: "a_negative"'s, not that of the
  // empty datasets sorted after it, which fail sooner.
  std::map<std::string, model::Dataset> calib;
  calib.emplace("a_negative", linear_kernel_data(-0.5));
  for (const char* name : {"b_empty", "c_empty", "d_empty", "e_empty"})
    calib.emplace(name, model::Dataset({"x", "ranks"}));
  calib.emplace("f_fine", linear_kernel_data(0.5));
  model::FitOptions opt;
  opt.method = model::ModelMethod::kPowerLaw;
  for (int round = 0; round < 20; ++round) {
    try {
      (void)develop_models(calib, opt);
      FAIL() << "develop_models accepted failing kernels";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "power-law fit needs positive responses");
    }
  }
  calib.erase("a_negative");
  EXPECT_THROW(
      {
        try {
          (void)develop_models(calib, opt);
        } catch (const std::invalid_argument& e) {
          EXPECT_STREQ(e.what(), "empty dataset");
          throw;
        }
      },
      std::invalid_argument);
}

TEST(DevelopModels, BindIntoArch) {
  std::map<std::string, model::Dataset> calib;
  calib.emplace("k", linear_kernel_data(0.01));
  model::FitOptions opt;
  opt.method = model::ModelMethod::kFeatureRegression;
  const ModelSuite suite = develop_models(calib, opt);

  auto topo = std::make_shared<net::TwoStageFatTree>(16, 36, 8);
  ArchBEO arch("quartz-like", topo, net::CommParams{}, 36);
  suite.bind_into(arch);
  EXPECT_TRUE(arch.has_kernel("k"));
  EXPECT_GT(arch.kernel("k").predict(std::vector<double>{3.0, 64.0}), 0.0);
}

TEST(RunDse, SweepsScenariosTimesPoints) {
  auto topo = std::make_shared<net::TwoStageFatTree>(16, 8, 4);
  ArchBEO arch("m", topo, net::CommParams{}, 8);
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(0.01));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(0.05));

  const std::vector<Scenario> scenarios{
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, 2}}},
  };
  const std::vector<std::vector<double>> points{{4.0}, {8.0}};
  auto make_app = [](const Scenario& s, const std::vector<double>& p) {
    AppBEO app("toy", static_cast<std::int64_t>(p[0]));
    const ft::CheckpointScheduler sched(s.plan);
    for (int step = 1; step <= 10; ++step) {
      app.compute("work", p);
      app.end_timestep();
      for (ft::Level level : sched.due_after(step))
        app.checkpoint(level, "ckpt_l1", p);
    }
    return app;
  };
  const auto results =
      run_dse(scenarios, points, make_app, arch, EngineOptions{}, 4);
  ASSERT_EQ(results.size(), 4u);
  // L1 scenario strictly slower than No FT at matched params.
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double no_ft = results[i].ensemble.total.mean;
    const double l1 = results[points.size() + i].ensemble.total.mean;
    EXPECT_GT(l1, no_ft);
    EXPECT_NEAR(no_ft, 0.1, 1e-9);
    EXPECT_NEAR(l1, 0.1 + 5 * 0.05, 1e-9);
  }
}

TEST(RunDseCells, SubsetBitMatchesExhaustiveSweep) {
  auto topo = std::make_shared<net::TwoStageFatTree>(16, 8, 4);
  ArchBEO arch("m", topo, net::CommParams{}, 8);
  arch.bind_kernel(
      "work", std::make_shared<model::NoisyModel>(
                  std::make_shared<model::ConstantModel>(0.01), 0.2));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(0.05));

  const std::vector<Scenario> scenarios{
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, 2}}},
  };
  const std::vector<std::vector<double>> points{{4.0}, {8.0}};
  auto make_app = [](const Scenario& s, const std::vector<double>& p) {
    AppBEO app("toy", static_cast<std::int64_t>(p[0]));
    const ft::CheckpointScheduler sched(s.plan);
    for (int step = 1; step <= 10; ++step) {
      app.compute("work", p);
      app.end_timestep();
      for (ft::Level level : sched.due_after(step))
        app.checkpoint(level, "ckpt_l1", p);
    }
    return app;
  };
  EngineOptions opt;
  opt.seed = 7;
  opt.monte_carlo = true;
  const auto exhaustive =
      run_dse(scenarios, points, make_app, arch, opt, 4);
  ASSERT_EQ(exhaustive.size(), 4u);

  auto bits_equal = [](const std::vector<double>& a,
                       const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };

  // An out-of-order subset priced serially and pooled: every cell must be
  // bit-identical to the matching entry of the exhaustive sweep.
  const std::vector<DseCell> cells{{3, 0}, {0, 0}};
  const auto serial =
      run_dse_cells(scenarios, points, cells, make_app, arch, opt, 4, 1);
  const auto pooled =
      run_dse_cells(scenarios, points, cells, make_app, arch, opt, 4, 0);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(pooled.size(), 2u);
  EXPECT_TRUE(bits_equal(serial[0].ensemble.totals,
                         exhaustive[3].ensemble.totals));
  EXPECT_TRUE(bits_equal(serial[1].ensemble.totals,
                         exhaustive[0].ensemble.totals));
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_TRUE(
        bits_equal(serial[i].ensemble.totals, pooled[i].ensemble.totals));

  // A reduced-fidelity cell (bandit rung) is a bit-exact prefix of the
  // full-trials evaluation: per-trial seeds split by trial index.
  const auto rung = run_dse_cells(scenarios, points, {{2, 2}}, make_app,
                                  arch, opt, 4, 1);
  ASSERT_EQ(rung.size(), 1u);
  ASSERT_EQ(rung[0].ensemble.totals.size(), 2u);
  ASSERT_EQ(exhaustive[2].ensemble.totals.size(), 4u);
  for (std::size_t t = 0; t < 2; ++t) {
    const double a = rung[0].ensemble.totals[t];
    const double b = exhaustive[2].ensemble.totals[t];
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "trial " << t;
  }
}

}  // namespace
}  // namespace ftbesst::core
