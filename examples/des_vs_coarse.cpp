// Example: the two execution engines. The coarse (bulk-synchronous) engine
// is BE-SST's fast path for Monte-Carlo DSE sweeps; the discrete-event
// engine runs the identical AppBEO as a component simulation on the PDES
// kernel (the SST role). In deterministic mode they agree exactly; the DES
// path additionally exposes per-rank structure.

#include <iostream>
#include <memory>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "core/arch.hpp"
#include "core/engine_bsp.hpp"
#include "core/engine_des.hpp"
#include "net/topology.hpp"
#include "util/table.hpp"

using namespace ftbesst;

int main() {
  // A small machine and a LULESH program with explicit communication, so
  // the network model matters.
  auto topology = std::make_shared<net::TwoStageFatTree>(8, 8, 4);
  core::ArchBEO arch("minicluster", topology, net::CommParams{}, 8);
  ft::FtiConfig fti;
  fti.group_size = 4;
  fti.node_size = 2;
  arch.set_fti(fti);
  arch.bind_kernel(apps::kLuleshTimestep,
                   std::make_shared<model::ConstantModel>(0.018));
  arch.bind_kernel(apps::checkpoint_kernel(ft::Level::kL1),
                   std::make_shared<model::ConstantModel>(0.11));

  apps::LuleshConfig cfg;
  cfg.epr = 10;
  cfg.ranks = 64;
  cfg.timesteps = 50;
  cfg.plan = {{ft::Level::kL1, 10}};
  cfg.fti = fti;
  const core::AppBEO app = apps::build_lulesh_explicit_comm(cfg);

  const core::RunResult coarse = core::run_bsp(app, arch);
  const core::RunResult des = core::run_des(app, arch);

  util::TextTable t("Coarse engine vs discrete-event engine (deterministic)");
  t.set_header({"engine", "total_s", "timesteps", "ckpt instances",
                "instr executed"});
  auto row = [&](const char* name, const core::RunResult& r) {
    t.add_row({name, util::TextTable::fmt(r.total_seconds, 6),
               std::to_string(r.timestep_end_times.size()),
               std::to_string(r.checkpoint_timesteps.size()),
               std::to_string(r.instructions_executed)});
  };
  row("coarse (BSP)", coarse);
  row("discrete-event", des);
  t.print(std::cout);
  std::cout << "agreement: |delta| = "
            << std::abs(coarse.total_seconds - des.total_seconds)
            << " s (instruction counts differ by design: the DES engine "
               "counts per-rank executions)\n";
  return 0;
}
