// Extension bench: strong-scaling DSE — "how many ranks should this fixed
// problem use?" — with and without fault tolerance, against the Amdahl
// baseline. Fixed 384^3 Stencil3D problem; more ranks buy compute but pay
// surface communication and (with C/R under faults) more fault exposure.
// This is the concrete-model version of the related-work speedup laws:
// same question, machine-calibrated answer.

#include <iostream>
#include <memory>

#include "apps/kernels.hpp"
#include "apps/stencil3d.hpp"
#include "core/arch.hpp"
#include "core/montecarlo.hpp"
#include "ft/checkpoint_cost.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

using namespace ftbesst;

namespace {
/// Per-sweep compute: 2 ns per cell of the rank-local block.
class CellModel final : public model::PerfModel {
 public:
  double predict(std::span<const double> p) const override {
    return 2e-9 * p[0] * p[0] * p[0];
  }
  std::string describe() const override { return "2ns * nx^3"; }
};
}  // namespace

int main() {
  constexpr int kGlobal = 384;
  constexpr int kSweeps = 200;
  auto topo = std::make_shared<net::TwoStageFatTree>(128, 8, 16);
  net::CommParams comm;
  comm.bandwidth = 4e9;
  core::ArchBEO arch("cluster", topo, comm, 8);
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  arch.set_fti(fti);
  arch.bind_kernel(apps::kStencilSweep, std::make_shared<CellModel>());
  // L2 checkpoints sized by block state; restart analog.
  ft::CheckpointCostModel cost({}, fti);
  arch.bind_kernel(
      apps::checkpoint_kernel(ft::Level::kL2),
      std::make_shared<model::ConstantModel>(0.0));  // rebound per point

  std::cout << "Strong-scaling DSE: fixed " << kGlobal << "^3 stencil, "
            << kSweeps << " sweeps\n\n";

  util::TextTable t("Runtime and efficiency vs rank count");
  t.set_header({"ranks", "block nx", "fault-free (s)", "speedup",
                "parallel eff", "faulty w/ L2-C/R (s)"});
  double base_time = 0.0;
  for (std::int64_t ranks : {std::int64_t{8}, std::int64_t{64},
                             std::int64_t{512}, std::int64_t{4096}}) {
    auto cfg = apps::Stencil3dConfig::strong_scaling(kGlobal, ranks, kSweeps);
    cfg.fti = fti;
    const core::AppBEO clean_app = apps::build_stencil3d(cfg);
    const double clean = core::run_bsp(clean_app, arch).total_seconds;
    if (base_time == 0.0) base_time = clean * static_cast<double>(ranks) / 8.0;
    // base_time ~ single-"unit" time extrapolated from the 8-rank run.
    const double speedup = base_time / clean;

    // Faulty variant: L2 checkpoints every 20 sweeps, node losses at 2 h
    // node MTBF — more ranks, more exposure.
    cfg.plan = {{ft::Level::kL2, 20}};
    arch.bind_kernel(apps::checkpoint_kernel(ft::Level::kL2),
                     std::make_shared<model::ConstantModel>(cost.cost(
                         ft::Level::kL2,
                         apps::stencil3d_checkpoint_bytes(cfg.nx), ranks)));
    arch.bind_restart(ft::Level::kL2,
                      std::make_shared<model::ConstantModel>(
                          cost.restart_cost(
                              ft::Level::kL2,
                              apps::stencil3d_checkpoint_bytes(cfg.nx),
                              ranks)));
    arch.set_fault_process(ft::FaultProcess(2.0 * 3600.0, 1.0));
    core::EngineOptions opt;
    opt.inject_faults = true;
    opt.downtime_seconds = 10.0;
    opt.max_sim_seconds = 8 * 3600.0;
    opt.seed = 3 + static_cast<std::uint64_t>(ranks);
    const double faulty =
        core::run_ensemble(apps::build_stencil3d(cfg), arch, opt, 10)
            .total.mean;
    arch.set_fault_process(std::nullopt);

    t.add_row({util::TextTable::fmt(static_cast<double>(ranks), 0),
               std::to_string(cfg.nx), util::TextTable::fmt(clean, 2),
               util::TextTable::fmt(speedup, 1),
               util::TextTable::pct(
                   100.0 * speedup / (static_cast<double>(ranks) / 8.0), 0),
               util::TextTable::fmt(faulty, 2)});
  }
  t.print(std::cout);
  std::cout << "\nAmdahl reference (communication as the serial fraction) "
               "would predict monotone speedup; the concrete model shows "
               "both the efficiency decay (surface/volume) and — under "
               "faults — where added exposure starts eating the gain, per "
               "Zheng/Cavelan's reliability-aware speedup argument.\n";
  return 0;
}
