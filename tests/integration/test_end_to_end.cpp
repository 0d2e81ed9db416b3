// Integration tests: the full calibrate -> model -> bind -> simulate ->
// validate pipeline on miniature versions of the paper's case study, plus
// cross-engine and cross-layer consistency checks that no unit test covers.

#include <gtest/gtest.h>

#include <memory>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "core/workflow.hpp"
#include "model/serialize.hpp"
#include "net/topology.hpp"
#include "util/stats.hpp"

namespace ftbesst {
namespace {

ft::FtiConfig fti_cfg() {
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  return fti;
}

struct Pipeline {
  apps::QuartzTestbed testbed{apps::QuartzTruthParams{}, fti_cfg(), 404};
  std::map<std::string, model::Dataset> calibration;
  core::ModelSuite suite;
  std::shared_ptr<net::TwoStageFatTree> topo;
  std::unique_ptr<core::ArchBEO> arch;

  explicit Pipeline(model::ModelMethod method = model::ModelMethod::kAuto) {
    apps::CampaignSpec spec;
    spec.samples_per_point = 8;
    spec.seed = 11;
    calibration = apps::run_campaign(
        testbed, spec,
        {apps::kLuleshTimestep, apps::checkpoint_kernel(ft::Level::kL1),
         apps::checkpoint_kernel(ft::Level::kL2)});
    model::FitOptions fit;
    fit.method = method;
    fit.symreg.generations = 60;
    suite = core::develop_models(calibration, fit);
    topo = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
    arch = std::make_unique<core::ArchBEO>("quartz", topo, net::CommParams{},
                                           36);
    arch->set_fti(fti_cfg());
    suite.bind_into(*arch);
  }
};

TEST(EndToEnd, KernelModelsMeetPaperAccuracyBand) {
  const Pipeline p;
  // Paper Table III: < 17% for every kernel; give our synthetic machine the
  // same headroom the paper claims ("less than 17%"), with margin for seed
  // variation.
  for (const auto& report : p.suite.reports)
    EXPECT_LT(report.fit.full_mape, 25.0) << report.kernel;
  // The timestep kernel is the easy one and must be well under 10%.
  for (const auto& report : p.suite.reports) {
    if (report.kernel == apps::kLuleshTimestep) {
      EXPECT_LT(report.fit.full_mape, 10.0);
    }
  }
}

TEST(EndToEnd, FittedModelsPreserveKernelOrdering) {
  const Pipeline p;
  const auto& ts = *p.suite.kernels.at(apps::kLuleshTimestep).model;
  const auto& l1 =
      *p.suite.kernels.at(apps::checkpoint_kernel(ft::Level::kL1)).model;
  const auto& l2 =
      *p.suite.kernels.at(apps::checkpoint_kernel(ft::Level::kL2)).model;
  for (double epr : {10.0, 20.0}) {
    for (double ranks : {64.0, 512.0, 1000.0}) {
      const std::vector<double> pt{epr, ranks};
      EXPECT_LT(ts.predict(pt), l1.predict(pt)) << epr << "," << ranks;
      EXPECT_LT(l1.predict(pt), l2.predict(pt)) << epr << "," << ranks;
    }
  }
}

TEST(EndToEnd, FullSystemSimulationTracksMeasurement) {
  Pipeline p;
  util::Rng rng(77);
  std::vector<double> measured, simulated;
  const std::vector<ft::PlanEntry> plan{{ft::Level::kL1, 40},
                                        {ft::Level::kL2, 40}};
  for (int epr : {10, 20}) {
    for (std::int64_t ranks : {std::int64_t{64}, std::int64_t{512}}) {
      measured.push_back(
          p.testbed.run_application(epr, ranks, 100, plan, rng)
              .total_seconds);
      apps::LuleshConfig cfg;
      cfg.epr = epr;
      cfg.ranks = ranks;
      cfg.timesteps = 100;
      cfg.plan = plan;
      cfg.fti = fti_cfg();
      const auto ens = core::run_ensemble(apps::build_lulesh_fti(cfg),
                                          *p.arch, core::EngineOptions{}, 8);
      simulated.push_back(ens.total.mean);
    }
  }
  // Paper Table IV: ~15-20% full-system MAPE; hold ourselves under 25%.
  EXPECT_LT(util::mape_percent(measured, simulated), 25.0);
}

TEST(EndToEnd, DesEngineMatchesCoarseEngineOnCaseStudyApp) {
  Pipeline p;
  // Strip noise: rebind deterministic models so both engines are exact.
  for (const auto& [kernel, fitted] : p.suite.kernels)
    p.arch->bind_kernel(kernel, fitted.model);
  apps::LuleshConfig cfg;
  cfg.epr = 10;
  cfg.ranks = 64;
  cfg.timesteps = 40;
  cfg.plan = {{ft::Level::kL1, 10}};
  cfg.fti = fti_cfg();
  const core::AppBEO app = apps::build_lulesh_fti(cfg);
  const auto bsp = core::run_bsp(app, *p.arch);
  const auto des = core::run_des(app, *p.arch);
  EXPECT_NEAR(des.total_seconds, bsp.total_seconds,
              1e-7 * bsp.total_seconds);
  EXPECT_EQ(des.checkpoint_timesteps, bsp.checkpoint_timesteps);
}

TEST(EndToEnd, EnsembleIsThreadCountInvariant) {
  Pipeline p;
  apps::LuleshConfig cfg;
  cfg.epr = 10;
  cfg.ranks = 64;
  cfg.timesteps = 50;
  cfg.fti = fti_cfg();
  const core::AppBEO app = apps::build_lulesh_fti(cfg);
  core::EngineOptions opt;
  opt.seed = 99;
  const auto one = core::run_ensemble(app, *p.arch, opt, 16, 1);
  const auto four = core::run_ensemble(app, *p.arch, opt, 16, 4);
  EXPECT_EQ(core::bit_difference(one, four), "");
}

TEST(EndToEnd, ModelsSurviveSerializationRoundTrip) {
  Pipeline p;
  apps::LuleshConfig cfg;
  cfg.epr = 15;
  cfg.ranks = 216;
  cfg.timesteps = 20;
  cfg.fti = fti_cfg();
  const core::AppBEO app = apps::build_lulesh_fti(cfg);
  const double before = core::run_bsp(app, *p.arch).total_seconds;

  // Serialize every binding, rebuild a fresh ArchBEO from text.
  core::ArchBEO reloaded("quartz2", p.topo, net::CommParams{}, 36);
  reloaded.set_fti(fti_cfg());
  for (const auto& [kernel, fitted] : p.suite.kernels)
    reloaded.bind_kernel(kernel, model::model_from_string(
                                     model::model_to_string(
                                         *fitted.noisy_model)));
  const double after = core::run_bsp(app, reloaded).total_seconds;
  EXPECT_DOUBLE_EQ(before, after);
}

TEST(EndToEnd, CalibrationDatasetRoundTripsThroughCsv) {
  Pipeline p;
  for (const auto& [kernel, data] : p.calibration) {
    std::ostringstream os;
    model::save_dataset(os, data);
    std::istringstream is(os.str());
    const model::Dataset back = model::load_dataset(is);
    ASSERT_EQ(back.num_rows(), data.num_rows()) << kernel;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
      EXPECT_EQ(back.row(i).params, data.row(i).params);
      EXPECT_EQ(back.row(i).samples, data.row(i).samples);
    }
  }
}

TEST(EndToEnd, FaultInjectionShowsCheckpointValueAtLowMtbf) {
  // With frequent node losses, an L2 plan must beat No-FT on expected
  // runtime; with ultra-reliable nodes, No-FT must win (overhead only).
  Pipeline p;
  ft::CheckpointCostModel cost({}, fti_cfg());
  p.arch->bind_restart(ft::Level::kL2,
                       std::make_shared<model::ConstantModel>(
                           cost.restart_cost(ft::Level::kL2,
                                             apps::lulesh_checkpoint_bytes(10),
                                             64)));
  auto run_scenario = [&](bool with_ft, double node_mtbf) {
    apps::LuleshConfig cfg;
    cfg.epr = 10;
    cfg.ranks = 64;
    cfg.timesteps = 2000;
    cfg.fti = fti_cfg();
    if (with_ft) cfg.plan = {{ft::Level::kL2, 50}};
    p.arch->set_fault_process(ft::FaultProcess(node_mtbf, 1.0));
    core::EngineOptions opt;
    opt.inject_faults = true;
    opt.downtime_seconds = 2.0;
    opt.max_sim_seconds = 3600.0;
    opt.seed = 13;
    return core::run_ensemble(apps::build_lulesh_fti(cfg), *p.arch, opt, 10)
        .total.mean;
  };
  const double flaky_no_ft = run_scenario(false, 300.0);
  const double flaky_l2 = run_scenario(true, 300.0);
  EXPECT_LT(flaky_l2, flaky_no_ft);
  const double solid_no_ft = run_scenario(false, 1e9);
  const double solid_l2 = run_scenario(true, 1e9);
  EXPECT_LT(solid_no_ft, solid_l2);
}

}  // namespace
}  // namespace ftbesst
