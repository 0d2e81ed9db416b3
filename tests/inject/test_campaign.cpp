// Campaign driver: thread-count invariance, identity with the injected
// ensemble, argument validation, and the Young/Daly acceptance leg over the
// golden corpus machines.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/arch.hpp"
#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "inject/campaign.hpp"
#include "net/topology.hpp"
#include "support/test_seed.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::inject {
namespace {

core::ArchBEO make_arch() {
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  core::ArchBEO arch("m", topo, net::CommParams{}, 4);
  arch.set_fti(ft::FtiConfig{2, 2, 1});
  arch.bind_kernel("work", std::make_shared<model::ConstantModel>(10.0));
  arch.bind_kernel("ckpt", std::make_shared<model::ConstantModel>(1.0));
  arch.set_fault_process(ft::FaultProcess(200.0, 0.5));
  return arch;
}

core::AppBEO make_app() {
  core::AppBEO app("toy", 4);
  for (int step = 1; step <= 10; ++step) {
    app.compute("work", {});
    app.end_timestep();
    if (step % 2 == 0) app.checkpoint(ft::Level::kL2, "ckpt", {});
  }
  return app;
}

CampaignOptions base_options(std::uint64_t seed) {
  CampaignOptions opt;
  opt.trials = 8;
  opt.engine.seed = seed;
  opt.engine.downtime_seconds = 3.0;
  opt.engine.max_sim_seconds = 5000.0;
  return opt;
}

TEST(Campaign, BitIdenticalAcrossThreadCounts) {
  const std::uint64_t seed = test::test_seed(77);
  CampaignOptions opt = base_options(seed);
  opt.threads = 1;
  const CampaignResult a = run_campaign(make_app(), make_arch(), opt);
  opt.threads = 4;
  const CampaignResult b = run_campaign(make_app(), make_arch(), opt);
  EXPECT_EQ(core::bit_difference(a, b), "");
  EXPECT_EQ(a.p10, b.p10);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_GT(a.fault_log.size(), 0u);
}

// A campaign is a mode of the one trial driver: on the coarse engine with
// monte_carlo on it is exactly run_ensemble with inject_faults on, every
// field and fault-log byte included.
TEST(Campaign, CoarseMonteCarloCampaignIsTheInjectedEnsemble) {
  core::ArchBEO arch = make_arch();
  arch.bind_kernel("work", std::make_shared<model::NoisyModel>(
                               std::make_shared<model::ConstantModel>(10.0),
                               0.2));
  CampaignOptions opt = base_options(test::test_seed(31));
  opt.use_des = false;
  opt.engine.monte_carlo = true;
  const CampaignResult campaign = run_campaign(make_app(), arch, opt);
  core::EngineOptions engine = opt.engine;
  engine.inject_faults = true;
  const core::EnsembleResult ensemble =
      core::run_ensemble(make_app(), arch, engine, opt.trials);
  EXPECT_EQ(core::bit_difference(campaign, ensemble), "");
  EXPECT_GT(campaign.fault_log.size(), 0u);
  EXPECT_EQ(campaign.fault_log.trials(), opt.trials);
}

TEST(Campaign, DesAndBspBackendsBothComplete) {
  CampaignOptions opt = base_options(5);
  opt.threads = 1;
  const CampaignResult des = run_campaign(make_app(), make_arch(), opt);
  opt.use_des = false;
  const CampaignResult bsp = run_campaign(make_app(), make_arch(), opt);
  EXPECT_EQ(des.totals.size(), 8u);
  EXPECT_EQ(bsp.totals.size(), 8u);
  EXPECT_EQ(des.incomplete_trials, 0u);
  EXPECT_EQ(bsp.incomplete_trials, 0u);
  // Every trial runs at least as long as the clean 105 s program.
  EXPECT_GE(des.total.min, 105.0);
  EXPECT_GE(bsp.total.min, 105.0);
}

TEST(Campaign, PerTrialFaultLogIsReplayable) {
  CampaignOptions opt = base_options(13);
  opt.trials = 4;
  opt.threads = 1;
  const CampaignResult res = run_campaign(make_app(), make_arch(), opt);
  ASSERT_GT(res.fault_log.size(), 0u);
  EXPECT_EQ(res.fault_log.trials(), 4u);
  EXPECT_THROW((void)res.fault_log.to_trace(4), std::out_of_range);
  // Records are tagged with their trial; replaying one trial's trace
  // through the engine reproduces that trial's makespan exactly.
  for (std::size_t t = 0; t < 4; ++t) {
    core::EngineOptions replay = opt.engine;
    replay.inject_faults = true;
    replay.fault_trace =
        res.fault_log.to_trace(static_cast<std::int64_t>(t));
    const core::RunResult r = core::run_des(make_app(), make_arch(), replay);
    EXPECT_EQ(std::memcmp(&r.total_seconds, &res.totals[t], sizeof(double)),
              0)
        << "trial " << t;
  }
}

TEST(Campaign, ZeroTrialsRejected) {
  CampaignOptions opt;
  opt.trials = 0;
  EXPECT_THROW((void)run_campaign(make_app(), make_arch(), opt),
               std::invalid_argument);
}

// Acceptance leg: on the golden-corpus fault machines the full
// differential battery — including the injected-campaign-vs-Young/Daly
// band and the fold/thread bit-identity checks — must pass, and at least
// one corpus machine must be Young/Daly-eligible so the statistical
// comparison actually runs.
TEST(Campaign, GoldenCorpusMachinesPassTheInjectionBattery) {
  const char* names[] = {"l1_local", "l2_partner", "crash_only",
                         "young_daly_interval"};
  int inject_checks = 0;
  int young_daly_checks = 0;
  for (const char* name : names) {
    const std::string path =
        std::string(FTBESST_CORPUS_DIR) + "/" + name + ".scenario";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    const verify::Scenario s = verify::Scenario::from_text(text.str());
    const verify::DiffReport report = verify::check_scenario(s);
    EXPECT_TRUE(report.ok()) << name << ":\n" << report.summary();
    inject_checks += report.inject_checks;
    young_daly_checks += report.inject_young_daly_checks;
  }
  EXPECT_GE(inject_checks, 4);
  EXPECT_GE(young_daly_checks, 1);
}

}  // namespace
}  // namespace ftbesst::inject
