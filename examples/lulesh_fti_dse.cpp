// Example: fault-tolerance design-space exploration for LULESH_FTI —
// the paper's case study driven through the public API. Sweeps the three
// FT scenarios over the Table II parameter grid and prints, per point, the
// predicted runtime and FT overhead, then recommends the cheapest scenario
// meeting a resilience requirement ("survive any single node loss").

#include <iostream>
#include <memory>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "core/arch.hpp"
#include "core/workflow.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

using namespace ftbesst;

int main() {
  // Calibrate + model (Model Development phase).
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  apps::QuartzTestbed machine({}, fti);
  apps::CampaignSpec campaign;
  const auto calibration = apps::run_campaign(
      machine, campaign,
      {apps::kLuleshTimestep, apps::checkpoint_kernel(ft::Level::kL1),
       apps::checkpoint_kernel(ft::Level::kL2)});
  const core::ModelSuite models = core::develop_models(calibration, {});

  auto topology = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
  core::ArchBEO quartz("quartz", topology, net::CommParams{}, 36);
  quartz.set_fti(fti);
  models.bind_into(quartz);

  // Co-Design phase: scenarios x parameter grid through run_dse().
  const std::vector<core::Scenario> scenarios{
      {"No FT", {}},
      {"L1", {{ft::Level::kL1, 40}}},
      {"L1 & L2", {{ft::Level::kL1, 40}, {ft::Level::kL2, 40}}},
  };
  std::vector<std::vector<double>> points;
  for (int epr : {10, 15, 20, 25})
    for (std::int64_t ranks : {std::int64_t{64}, std::int64_t{512},
                               std::int64_t{1000}})
      points.push_back({static_cast<double>(epr),
                        static_cast<double>(ranks)});

  auto make_app = [&](const core::Scenario& scenario,
                      const std::vector<double>& p) {
    apps::LuleshConfig cfg;
    cfg.epr = static_cast<int>(p[0]);
    cfg.ranks = static_cast<std::int64_t>(p[1]);
    cfg.timesteps = 200;
    cfg.plan = scenario.plan;
    cfg.fti = fti;
    return apps::build_lulesh_fti(cfg);
  };
  const auto dse = core::run_dse(scenarios, points, make_app, quartz,
                                 core::EngineOptions{}, 10);

  util::TextTable t("LULESH_FTI DSE: predicted runtime (s) per scenario");
  t.set_header({"epr", "ranks", "No FT", "L1", "L1 & L2",
                "L1 overhead", "L1&L2 overhead"});
  const std::size_t n = points.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double no_ft = dse[i].ensemble.total.mean;
    const double l1 = dse[n + i].ensemble.total.mean;
    const double l1l2 = dse[2 * n + i].ensemble.total.mean;
    t.add_row({util::TextTable::fmt(points[i][0], 0),
               util::TextTable::fmt(points[i][1], 0),
               util::TextTable::fmt(no_ft, 2), util::TextTable::fmt(l1, 2),
               util::TextTable::fmt(l1l2, 2),
               util::TextTable::pct(100.0 * (l1 / no_ft - 1.0), 0),
               util::TextTable::pct(100.0 * (l1l2 / no_ft - 1.0), 0)});
  }
  t.print(std::cout);

  // Resilience-constrained recommendation: the cheapest plan whose highest
  // level survives a single node loss (L1 does not; L2 does).
  std::cout << "\nRequirement: survive any single node loss.\n";
  ft::FailureSet one_node;
  one_node.nodes = {0};
  one_node.kind = ft::FailureKind::kNodeLoss;
  for (const auto& scenario : scenarios) {
    if (scenario.plan.empty()) continue;
    const ft::CheckpointScheduler sched(scenario.plan);
    const bool ok =
        ft::recoverable(sched.max_level(), fti, 512, one_node);
    std::cout << "  " << scenario.name << ": "
              << (ok ? "meets requirement" : "insufficient (local-only)")
              << "\n";
  }
  std::cout << "=> 'L1 & L2' is the cheapest compliant plan; its predicted "
               "cost premium over L1 alone is the table's last column.\n";
  return 0;
}
