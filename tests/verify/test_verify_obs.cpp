// Observability must not perturb verification: the corpus pass (every
// golden replay and differential leg) and the differential checker must
// give the same results with metrics/tracing enabled as with them off (the
// obs layer's own bit-identity tests cover the engines; this covers the
// verify harness's paths through them).

#include <gtest/gtest.h>

#include <string>

#include "obs/obs.hpp"
#include "support/test_seed.hpp"
#include "verify/corpus.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {
namespace {

class VerifyObsTest : public ::testing::Test {
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

Scenario faulty_scenario() {
  Scenario s;
  s.trials = 8;
  s.timesteps = 15;
  s.plan = {{ft::Level::kL2, 4, false}};
  s.inject_faults = true;
  s.node_mtbf_seconds = 300.0;
  s.loss_fraction = 0.3;
  return s;
}

TEST_F(VerifyObsTest, ResultTextIsBitIdenticalObsOnVsOff) {
  const Scenario s = faulty_scenario();
  obs::enable(false);
  const std::string off = result_to_text(s, 1);
  obs::enable(true);
  const std::string on = result_to_text(s, 1);
  const std::string on_threaded = result_to_text(s, 4);
  EXPECT_EQ(on, off);
  EXPECT_EQ(on_threaded, off);
  // The instrumented runs did record something — obs was genuinely on.
  const auto snap = obs::scrape();
  EXPECT_GT(snap.counter("mc.ensembles"), 0u);
}

TEST_F(VerifyObsTest, CommittedCorpusReplaysByteExactWithObsEnabled) {
  // The .expected recordings were made with obs off, so every golden
  // replay here is an obs on/off byte comparison; the fold, thread and
  // injection legs also run with obs on.
  obs::enable(true);
  const DiffReport report = replay_corpus(FTBESST_CORPUS_DIR);
  EXPECT_TRUE(report.ok()) << report.summary("corpus");
  EXPECT_EQ(report.golden_checks, report.scenarios);
  // The instrumented runs did record something — obs was genuinely on.
  EXPECT_GT(obs::scrape().counter("mc.ensembles"), 0u);
}

TEST_F(VerifyObsTest, DifferentialRunIsCleanWithObsEnabled) {
  const std::uint64_t seed = test::test_seed(11);
  obs::enable(false);
  const DiffReport off = run_differential(10, seed);
  obs::enable(true);
  const DiffReport on = run_differential(10, seed);
  EXPECT_TRUE(off.ok()) << off.summary();
  EXPECT_TRUE(on.ok()) << on.summary();
  // Same scenarios, same checks: the reports agree exactly.
  EXPECT_EQ(on.scenarios, off.scenarios);
  EXPECT_EQ(on.analytic_checks, off.analytic_checks);
  EXPECT_EQ(on.engine_checks, off.engine_checks);
  EXPECT_EQ(on.thread_checks, off.thread_checks);
  EXPECT_EQ(on.young_daly_checks, off.young_daly_checks);
}

}  // namespace
}  // namespace ftbesst::verify
