// Golden pin of injected DES campaigns.
//
// Every campaign below runs through inject::run_campaign on the DES engine
// under a fixed seed, and every output an injected run produces must match
// tests/golden/des_inject_campaign.golden byte for byte:
//   - the 1000-rank LULESH_FTI campaign of the perfbench inject_campaign
//     workload (fail-stop and silent-corruption processes, 4 trials), at
//     two seeds, and variants of it: a bursty Weibull crash process three
//     times as frequent, 8 ranks unfolded, and 8 ranks Monte-Carlo;
//   - every injected corpus entry with its own seed, trial count and
//     options, folded (noise_mc_faulty is Monte-Carlo, so it runs unfolded);
//   - trial 2 of the thrash campaign replayed from its fault log.
// For each it records the bit patterns of the per-trial totals and of
// mean_lost_work, the incomplete-trial count, and the fault-log text. The
// corpus .expected files pin only the coarse engine; this pins the fault
// streams, folding and recovery of the DES. A mismatch writes the produced
// text to a temp file and names its path.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "inject/campaign.hpp"
#include "inject/sdc.hpp"
#include "net/topology.hpp"
#include "verify/scenario.hpp"

#ifndef FTBESST_GOLDEN_DIR
#error "FTBESST_GOLDEN_DIR must point at tests/golden"
#endif
#ifndef FTBESST_CORPUS_DIR
#error "FTBESST_CORPUS_DIR must point at tests/corpus"
#endif

namespace ftbesst::inject {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string bits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

void put_campaign(std::ostream& os, const std::string& name,
                  const core::EnsembleResult& r) {
  os << "campaign " << name << '\n' << "totals";
  for (const double t : r.totals) os << ' ' << bits(t);
  os << '\n'
     << "mean_lost_work " << bits(r.mean_lost_work) << '\n'
     << "incomplete_trials " << r.incomplete_trials << '\n'
     << r.fault_log.to_text();
}

// One LULESH_FTI campaign variant on the perfbench inject_campaign machine.
struct LuleshCase {
  std::int64_t ranks = 1000;
  double mtbf = 6000.0;
  double weibull_shape = 1.0;
  bool sdc = true;
  bool monte_carlo = false;
  bool fold = true;
  std::uint64_t seed = 1;
};

// The perfbench inject_campaign configuration: 1000 ranks on a 16 x 16
// fat-tree, FTI groups of 4 nodes with 2 ranks each (500 fault nodes),
// plan L1:10,L2:20, 100 timesteps, 4 trials.
CampaignResult lulesh_campaign(const LuleshCase& c) {
  auto topo = std::make_shared<net::TwoStageFatTree>(16, 16, 8);
  core::ArchBEO arch("quartz_1k", topo, net::CommParams{}, 4);
  arch.set_fti(ft::FtiConfig{4, 2, 1});
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.5));
  for (int level = 1; level <= 4; ++level) {
    const auto l = static_cast<ft::Level>(level);
    arch.bind_kernel(apps::checkpoint_kernel(l),
                     std::make_shared<model::ConstantModel>(0.05 * level));
    arch.bind_restart(l, std::make_shared<model::ConstantModel>(0.1 * level));
  }
  arch.set_fault_process(ft::FaultProcess(c.mtbf, 0.3, c.weibull_shape));
  if (c.sdc) arch.set_sdc_process(SdcProcess(25000.0, 0.5));

  apps::LuleshConfig config;
  config.epr = 15;
  config.ranks = c.ranks;
  config.timesteps = 100;
  config.fti = ft::FtiConfig{4, 2, 1};
  config.plan = {{ft::Level::kL1, 10, false}, {ft::Level::kL2, 20, false}};
  const core::AppBEO app = apps::build_lulesh_fti(config);

  CampaignOptions opt;
  opt.trials = 4;
  opt.threads = 1;
  opt.engine.seed = c.seed;
  opt.engine.monte_carlo = c.monte_carlo;
  opt.engine.fold_symmetry = c.fold;
  opt.engine.downtime_seconds = 2.0;
  opt.engine.max_sim_seconds = 50.0 * (100 * 0.5 + 20.0);
  return run_campaign(app, arch, opt);
}

void lulesh_campaigns(std::ostream& os) {
  // The perfbench workload itself at two seeds.
  put_campaign(os, "perfbench_1000_seed1", lulesh_campaign({}));
  put_campaign(os, "perfbench_1000_seed2", lulesh_campaign({.seed = 2}));
  // A bursty crash process three times as frequent, without SDC.
  put_campaign(os, "lulesh_1000_mtbf2000_weibull0.7_nosdc_seed3",
               lulesh_campaign({.mtbf = 2000.0, .weibull_shape = 0.7,
                                .sdc = false, .seed = 3}));
  // 8 ranks: unfolded singletons, then Monte-Carlo (unfolded as well).
  put_campaign(os, "lulesh_8_mtbf600_unfolded_seed4",
               lulesh_campaign({.ranks = 8, .mtbf = 600.0, .fold = false,
                                .seed = 4}));
  put_campaign(os, "lulesh_8_mtbf600_monte_carlo_seed5",
               lulesh_campaign({.ranks = 8, .mtbf = 600.0,
                                .monte_carlo = true, .seed = 5}));
}

CampaignResult corpus_campaign(const verify::BuiltScenario& built,
                               int trials) {
  CampaignOptions opt;
  opt.trials = static_cast<std::size_t>(trials);
  opt.threads = 1;
  opt.engine = built.options;
  opt.engine.fold_symmetry = true;
  return run_campaign(built.app, built.arch, opt);
}

void corpus_campaigns(std::ostream& os) {
  std::vector<std::filesystem::path> entries;
  for (const auto& file :
       std::filesystem::directory_iterator(FTBESST_CORPUS_DIR))
    if (file.path().extension() == ".scenario") entries.push_back(file.path());
  std::sort(entries.begin(), entries.end());
  for (const auto& path : entries) {
    const verify::Scenario s = verify::Scenario::from_file(path.string());
    if (!s.inject_faults) continue;
    const verify::BuiltScenario built = verify::build(s);
    const std::string name = path.stem().string();
    const CampaignResult r = corpus_campaign(built, s.trials);
    put_campaign(os, name, r);
    if (name != "thrash") continue;
    // One replayed trial, as `ftbesst inject --replay LOG --trial 2` runs it.
    verify::BuiltScenario replay = verify::build(s);
    replay.options.fault_trace =
        ft::FaultLog::from_text(r.fault_log.to_text()).to_trace(2);
    put_campaign(os, "thrash_replay_trial2", corpus_campaign(replay, 1));
  }
}

TEST(DesInjectGolden, CampaignsAreByteStable) {
  std::ostringstream out;
  lulesh_campaigns(out);
  corpus_campaigns(out);
  const std::string actual = out.str();
  const std::string expected =
      slurp(std::filesystem::path(FTBESST_GOLDEN_DIR) /
            "des_inject_campaign.golden");
  if (actual == expected) return;
  const std::filesystem::path produced =
      std::filesystem::temp_directory_path() /
      ("des_inject_campaign_" + std::to_string(::getpid()) + ".actual");
  std::ofstream(produced, std::ios::binary) << actual;
  ADD_FAILURE() << "injected DES campaigns differ from the golden file; "
                   "produced text kept at "
                << produced.string();
  EXPECT_EQ(expected, actual);
}

}  // namespace
}  // namespace ftbesst::inject
