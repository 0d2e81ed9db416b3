#pragma once
// Shared case-study fixture for the paper-reproduction benches: the
// Quartz-like testbed, the Table II calibration campaign, FT-aware model
// development, and the Quartz ArchBEO with the fitted models bound in.
//
// Every bench binary prints its table/figure data to stdout; everything
// here is deterministic for a fixed seed so reruns reproduce the report.
// The bench_ext_* binaries build their report as one svc::Json value and
// print its canonical dump, timing their legs with seconds_since().

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "core/arch.hpp"
#include "core/workflow.hpp"
#include "model/fitting.hpp"
#include "net/topology.hpp"

namespace ftbesst::bench {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Table II of the paper.
inline const std::vector<int> kEprs{5, 10, 15, 20, 25};
inline const std::vector<std::int64_t> kRanks{8, 64, 216, 512, 1000};
inline constexpr int kGroupSize = 4;
inline constexpr int kNodeSize = 2;
inline constexpr int kTimesteps = 200;
inline constexpr int kCheckpointPeriod = 40;

inline ft::FtiConfig case_study_fti() {
  ft::FtiConfig fti;
  fti.group_size = kGroupSize;
  fti.node_size = kNodeSize;
  return fti;
}

struct CaseStudy {
  apps::QuartzTestbed testbed;
  std::map<std::string, model::Dataset> calibration;
  core::ModelSuite suite;
  std::shared_ptr<net::TwoStageFatTree> topology;
  std::unique_ptr<core::ArchBEO> arch;

  CaseStudy(std::vector<std::string> kernels, model::ModelMethod method,
            std::uint64_t seed = 2021)
      : testbed({}, case_study_fti()) {
    apps::CampaignSpec spec;
    spec.eprs = kEprs;
    spec.ranks = kRanks;
    spec.samples_per_point = 10;
    spec.seed = seed;
    calibration = apps::run_campaign(testbed, spec, kernels);

    model::FitOptions fit;
    fit.method = method;
    fit.seed = seed;
    suite = core::develop_models(calibration, fit);

    // Quartz-like architecture: two-stage fat-tree, 36-core nodes.
    topology = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
    net::CommParams comm;
    comm.bandwidth = 12.5e9;  // 100 Gb/s Omni-Path
    arch = std::make_unique<core::ArchBEO>("quartz", topology, comm, 36);
    arch->set_fti(case_study_fti());
    suite.bind_into(*arch);
  }
};

/// The case study's three fault-tolerance scenarios (Figs. 7-9).
inline std::vector<core::Scenario> case_study_scenarios() {
  return {
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, kCheckpointPeriod}}},
      {"L1 & L2",
       {{ft::Level::kL1, kCheckpointPeriod},
        {ft::Level::kL2, kCheckpointPeriod}}},
  };
}

/// Build the case-study LULESH_FTI AppBEO for a scenario and (epr, ranks).
inline core::AppBEO case_study_app(const core::Scenario& scenario, int epr,
                                   std::int64_t ranks,
                                   int timesteps = kTimesteps) {
  apps::LuleshConfig cfg;
  cfg.epr = epr;
  cfg.ranks = ranks;
  cfg.timesteps = timesteps;
  cfg.plan = scenario.plan;
  cfg.fti = case_study_fti();
  return apps::build_lulesh_fti(cfg);
}

}  // namespace ftbesst::bench
