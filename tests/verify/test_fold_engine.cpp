// Engine-level symmetry folding: run_des with fold_symmetry on must price
// every deterministic scenario bitwise-identically to the unfolded engine
// while processing strictly fewer PDES events; the Monte-Carlo and
// DES-network paths must disable folding outright (per-rank RNG streams /
// physical network positions).

#include <gtest/gtest.h>

#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {
namespace {

/// A symmetric machine big enough that folding has something to collapse:
/// 16 identical ranks, halo exchange, allreduce, and a two-level plan.
Scenario symmetric_scenario() {
  Scenario s;
  s.leaves = 2;
  s.nodes_per_leaf = 4;
  s.ranks_per_node = 2;
  s.ranks = 16;
  s.fti = {4, 2, 1};
  s.timesteps = 8;
  s.kernel_cost = 0.25;
  s.exchange_degree = 4;
  s.exchange_bytes = 1u << 16;
  s.allreduce_bytes = 4096;
  s.plan = {{ft::Level::kL1, 2, false}, {ft::Level::kL4, 4, false}};
  return s;
}

core::RunResult price(const Scenario& s, bool fold) {
  BuiltScenario built = build(s);
  built.options.fold_symmetry = fold;
  return core::run_des(built.app, built.arch, built.options);
}

TEST(EngineFold, FoldedMatchesUnfoldedBitwiseWithFewerEvents) {
  const Scenario s = symmetric_scenario();
  const core::RunResult folded = price(s, true);
  const core::RunResult unfolded = price(s, false);
  EXPECT_EQ(core::bit_difference(folded, unfolded), "");
  // 16 identical ranks collapse to one representative.
  EXPECT_LT(folded.sim_events, unfolded.sim_events);
  EXPECT_GT(folded.sim_events, 0u);
}

TEST(EngineFold, MonteCarloDisablesFolding) {
  Scenario s = symmetric_scenario();
  s.monte_carlo = true;
  s.noise_sigma = 0.05;
  const core::RunResult on = price(s, true);
  const core::RunResult off = price(s, false);
  // Per-rank RNG streams make ranks non-equivalent: the fold flag must be
  // a no-op here, down to the event count.
  EXPECT_EQ(on.sim_events, off.sim_events);
  EXPECT_EQ(core::bit_difference(on, off), "");
}

TEST(EngineFold, DesNetworkDisablesFolding) {
  Scenario s = symmetric_scenario();
  const auto run = [&](bool fold) {
    BuiltScenario built = build(s);
    built.options.use_des_network = true;
    built.options.fold_symmetry = fold;
    return core::run_des(built.app, built.arch, built.options);
  };
  const core::RunResult on = run(true);
  const core::RunResult off = run(false);
  // Ranks occupy concrete network positions: folding must stay off.
  EXPECT_EQ(on.sim_events, off.sim_events);
  EXPECT_EQ(core::bit_difference(on, off), "");
}

TEST(EngineFold, AsymmetricPlansStillFoldPerClass) {
  // Same machine, but Monte-Carlo off and a rank count that is not a
  // multiple of anything special: every rank still runs the same AppBEO
  // program, so they all fold regardless of the FTI group structure.
  Scenario s = symmetric_scenario();
  s.ranks = 8;
  const core::RunResult folded = price(s, true);
  const core::RunResult unfolded = price(s, false);
  EXPECT_EQ(core::bit_difference(folded, unfolded), "");
  EXPECT_LT(folded.sim_events, unfolded.sim_events);
}

}  // namespace
}  // namespace ftbesst::verify
