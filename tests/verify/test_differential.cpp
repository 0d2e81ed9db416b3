// The differential checker checks the engines — these tests check the
// checker: a clean pass over generated scenarios, a guaranteed catch of a
// deliberately mis-priced checkpoint model (the harness's reason to exist),
// and deterministic shrinking.

#include <gtest/gtest.h>

#include <string>

#include "support/test_seed.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {
namespace {

TEST(Differential, GeneratedScenariosPassAllChecks) {
  const DiffReport report = run_differential(40, test::test_seed(1));
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.scenarios, 40);
  EXPECT_EQ(report.analytic_checks, 40);
  EXPECT_EQ(report.thread_checks, 40);
  EXPECT_GT(report.engine_checks, 0);
}

/// A scenario whose plan actually fires checkpoints, so checkpoint pricing
/// is on the analytic-twin critical path.
Scenario checkpointed_scenario() {
  Scenario s;
  s.timesteps = 8;
  s.plan = {{ft::Level::kL2, 2, false}};
  return s;
}

TEST(Differential, MispricedCheckpointModelIsCaught) {
  const Scenario s = checkpointed_scenario();

  // Control: correctly priced, every check passes.
  EXPECT_TRUE(check_scenario(s).ok());

  // A 0.1% error in the engines' checkpoint cost — the shape of an
  // off-by-one or dropped term in ft::CheckpointCostModel — must surface
  // as an analytic_twin failure (the twin prices the scenario
  // independently and is immune to the override).
  BuildOverrides skewed;
  skewed.checkpoint_cost_scale = 1.001;
  const DiffReport report = check_scenario(s, DiffTolerances{}, skewed);
  ASSERT_FALSE(report.ok());
  bool saw_analytic = false;
  for (const DiffFailure& f : report.failures)
    saw_analytic = saw_analytic || f.check == "analytic_twin";
  EXPECT_TRUE(saw_analytic) << report.summary();
}

TEST(Differential, EvenTinyMispricingIsCaught) {
  // Far below any plausible rounding slop, far above the 1e-9 contract.
  BuildOverrides skewed;
  skewed.checkpoint_cost_scale = 1.0 + 1e-6;
  const DiffReport report =
      check_scenario(checkpointed_scenario(), DiffTolerances{}, skewed);
  EXPECT_FALSE(report.ok());
}

TEST(Differential, ShrinkIsDeterministicAndMinimal) {
  ScenarioGenerator gen(test::test_seed(5));
  Scenario big = gen.next();
  big.timesteps = 32;
  big.plan = {{ft::Level::kL1, 2, false}, {ft::Level::kL3, 5, false}};

  // Failure model: any scenario that still fires an L1 checkpoint.
  const auto still_fails = [](const Scenario& s) {
    for (const auto& entry : s.plan)
      if (entry.level == ft::Level::kL1 && entry.period <= s.timesteps)
        return true;
    return false;
  };
  ASSERT_TRUE(still_fails(big));

  const Scenario small = shrink(big, still_fails);
  EXPECT_TRUE(still_fails(small));             // shrinking preserves failure
  EXPECT_LE(small.timesteps, big.timesteps);   // and removes structure
  EXPECT_LE(small.plan.size(), big.plan.size());
  EXPECT_EQ(small.plan.size(), 1u);            // the L3 entry was dropped
  EXPECT_FALSE(small.inject_faults);
  EXPECT_EQ(small.noise_sigma, 0.0);

  // Deterministic: shrinking again from the same start is byte-identical,
  // and the result is a fixpoint.
  EXPECT_EQ(shrink(big, still_fails).to_text(), small.to_text());
  EXPECT_EQ(shrink(small, still_fails).to_text(), small.to_text());
}

TEST(Differential, FailuresCarryReproducibleScenarioText) {
  BuildOverrides skewed;
  skewed.checkpoint_cost_scale = 1.001;
  const DiffReport report =
      check_scenario(checkpointed_scenario(), DiffTolerances{}, skewed);
  ASSERT_FALSE(report.ok());
  // The summary embeds a parseable scenario block for copy-paste replay.
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("ftbesst-scenario v1"), std::string::npos);
  EXPECT_NE(summary.find("analytic_twin"), std::string::npos);
  for (const DiffFailure& f : report.failures)
    EXPECT_NO_THROW((void)Scenario::from_text(f.scenario.to_text()));
}

}  // namespace
}  // namespace ftbesst::verify
