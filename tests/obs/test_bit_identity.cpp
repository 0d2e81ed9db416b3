// Observation must never perturb simulation: running the exact same seeded
// workload with obs enabled and disabled must produce bit-identical results
// — not merely close ones. Covers the Monte-Carlo ensemble path (DES/BSP +
// task pool) and the symbolic-regression fit (pool + memoization).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/montecarlo.hpp"
#include "model/symreg.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace ftbesst {
namespace {

class BitIdentityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable(false);
    obs::reset();
    obs::trace_reset();
  }
  void TearDown() override {
    obs::enable(false);
    obs::reset();
    obs::trace_reset();
  }
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

core::ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(2, 4, 1);
  core::ArchBEO arch("testmachine", topo, net::CommParams{}, 2);
  ft::FtiConfig fti;
  fti.group_size = 2;
  fti.node_size = 2;
  arch.set_fti(fti);
  arch.set_fault_process(ft::FaultProcess(50.0, 1.0));
  auto base = std::make_shared<model::ConstantModel>(1.0);
  arch.bind_kernel("work", std::make_shared<model::NoisyModel>(base, 0.2));
  arch.bind_kernel("ckpt_l1", std::make_shared<model::ConstantModel>(0.5));
  arch.bind_restart(ft::Level::kL1,
                    std::make_shared<model::ConstantModel>(2.0));
  return arch;
}

core::AppBEO make_app(int timesteps, int period) {
  core::AppBEO app("toy", 4);
  for (int step = 1; step <= timesteps; ++step) {
    app.compute("work", {4.0});
    app.end_timestep();
    if (period > 0 && step % period == 0)
      app.checkpoint(ft::Level::kL1, "ckpt_l1", {4.0});
  }
  return app;
}

TEST_F(BitIdentityTest, EnsembleObsOnVsOffBitIdentical) {
  const core::ArchBEO arch = make_arch();
  const core::AppBEO app = make_app(30, 5);
  core::EngineOptions opt;
  opt.seed = 42;
  opt.inject_faults = true;
  opt.downtime_seconds = 1.0;

  obs::enable(false);
  const auto off = core::run_ensemble(app, arch, opt, 24, /*threads=*/0);
  obs::enable(true);
  const auto on = core::run_ensemble(app, arch, opt, 24, /*threads=*/0);

  EXPECT_EQ(core::bit_difference(off, on), "");
  EXPECT_GT(off.mean_faults, 0.0);  // the scenario actually faulted
  // And the instrumented run did record something.
  const auto snap = obs::scrape();
  EXPECT_EQ(snap.counter("mc.ensembles"), 1u);
  EXPECT_EQ(snap.counter("mc.trials"), 24u);
}

model::Dataset symreg_dataset() {
  util::Rng rng(9);
  model::Dataset d({"a", "b"});
  for (double a : {1.0, 2.0, 3.0, 4.0})
    for (double b : {1.0, 2.0, 5.0, 10.0}) {
      std::vector<double> samples;
      const double y = 2.0 * a * a + 0.5 * b;
      for (int s = 0; s < 5; ++s)
        samples.push_back(rng.lognormal_median(y, 0.05));
      d.add_row({a, b}, std::move(samples));
    }
  return d;
}

TEST_F(BitIdentityTest, SymRegFitObsOnVsOffBitIdentical) {
  const model::Dataset data = symreg_dataset();
  util::Rng split_rng_a(3);
  util::Rng split_rng_b(3);
  const auto [train_a, test_a] = data.split(0.75, split_rng_a);
  const auto [train_b, test_b] = data.split(0.75, split_rng_b);

  model::SymRegConfig cfg;
  cfg.population = 96;
  cfg.generations = 25;
  cfg.seed = 17;
  const model::SymbolicRegressor reg(cfg);

  obs::enable(false);
  const auto off = reg.fit(train_a, test_a);
  obs::enable(true);
  const auto on = reg.fit(train_b, test_b);

  EXPECT_TRUE(bits_equal(off.train_mape, on.train_mape));
  EXPECT_TRUE(bits_equal(off.test_mape, on.test_mape));
  EXPECT_EQ(off.generations_run, on.generations_run);
  ASSERT_EQ(off.best_history.size(), on.best_history.size());
  for (std::size_t i = 0; i < off.best_history.size(); ++i)
    EXPECT_TRUE(bits_equal(off.best_history[i], on.best_history[i]))
        << "generation " << i;
  ASSERT_TRUE(off.model);
  ASSERT_TRUE(on.model);
  EXPECT_EQ(off.model->describe(), on.model->describe());
  const std::vector<double> probe{3.5, 7.0};
  EXPECT_TRUE(bits_equal(off.model->predict(probe), on.model->predict(probe)));
  // The instrumented fit recorded per-generation stats (one tick per
  // evolutionary iteration = one best_history entry).
  const auto snap = obs::scrape();
  EXPECT_EQ(snap.counter("symreg.generations"), on.best_history.size());
  EXPECT_GT(snap.counter("symreg.evals"), 0u);
}

}  // namespace
}  // namespace ftbesst
