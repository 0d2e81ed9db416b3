// Slow tier: the notional-machine fold invariant at full scale. Prices the
// 393,216-rank Vulcan corpus entry through run_des folded and truly
// unfolded (one component per rank) and compares the two bit for bit —
// several seconds of wall-clock, hence the `slow` ctest label. The corpus
// pass (test_corpus.cpp) runs this entry folded only: it is above
// kMaxUnfoldedRanks.

#include <gtest/gtest.h>

#include <string>

#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

#ifndef FTBESST_CORPUS_DIR
#error "FTBESST_CORPUS_DIR must point at tests/corpus"
#endif

namespace ftbesst::verify {
namespace {

TEST(FoldCorpusSlow, VulcanUnfoldedReplayMatchesByteExactly) {
  const Scenario s = Scenario::from_file(std::string(FTBESST_CORPUS_DIR) +
                                         "/vulcan_393k.scenario");
  ASSERT_GT(s.ranks, kMaxUnfoldedRanks);
  BuiltScenario built = build(s);
  built.options.fold_symmetry = true;
  const core::RunResult folded =
      core::run_des(built.app, built.arch, built.options);
  built.options.fold_symmetry = false;
  const core::RunResult unfolded =
      core::run_des(built.app, built.arch, built.options);
  EXPECT_EQ(core::bit_difference(folded, unfolded), "");
  EXPECT_TRUE(folded.completed);
  EXPECT_LT(folded.sim_events, unfolded.sim_events);
}

}  // namespace
}  // namespace ftbesst::verify
