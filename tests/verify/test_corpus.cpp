// Golden corpus pass: the committed corpus must replay byte-exactly and
// pass every differential leg, and the pass must actually detect drift —
// a checker that cannot fail protects nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "verify/corpus.hpp"
#include "verify/scenario.hpp"

#ifndef FTBESST_CORPUS_DIR
#error "FTBESST_CORPUS_DIR must point at tests/corpus"
#endif

namespace ftbesst::verify {
namespace {

namespace fs = std::filesystem;

TEST(Corpus, CommittedCorpusReplaysByteExactly) {
  const DiffReport report = replay_corpus(FTBESST_CORPUS_DIR);
  EXPECT_TRUE(report.ok()) << report.summary("corpus");
  EXPECT_GE(report.scenarios, 20);  // curated coverage floor
  EXPECT_EQ(report.golden_checks, report.scenarios);
  EXPECT_EQ(report.analytic_checks, report.scenarios);
  EXPECT_EQ(report.thread_checks, report.scenarios);
  // Only the 393k-rank Vulcan entry is above the unfolded-rank cap.
  EXPECT_EQ(report.fold_checks, report.scenarios - 1);
  // The fault machines exercise the injection battery, at least one of
  // them inside the Young/Daly regime.
  EXPECT_GE(report.inject_checks, 4);
  EXPECT_GE(report.inject_young_daly_checks, 1);
  // At least three search_* entries, four gates each.
  EXPECT_GE(report.search_checks, 12);
}

TEST(Corpus, FoldedReplayMatchesUnfoldedByteExactly) {
  // Tier-1 fold invariant: every corpus machine prices identically with
  // symmetry folding on and off. The 393k-rank Vulcan entry is above
  // kMaxUnfoldedRanks and runs folded only here; the slow tier
  // (test_fold_slow.cpp) runs it truly unfolded.
  std::vector<fs::path> paths;
  for (const fs::directory_entry& e : fs::directory_iterator(FTBESST_CORPUS_DIR))
    if (e.path().extension() == ".scenario") paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  int unfolded_runs = 0;
  for (const fs::path& path : paths) {
    Scenario clean = Scenario::from_file(path.string());
    // run_des prices single deterministic executions; strip the
    // stochastic ingredients exactly as the differential checker does.
    clean.inject_faults = false;
    clean.monte_carlo = false;
    clean.noise_sigma = 0.0;
    BuiltScenario built = build(clean);
    built.options.fold_symmetry = true;
    const core::RunResult folded =
        core::run_des(built.app, built.arch, built.options);
    EXPECT_TRUE(folded.completed) << path.stem();
    if (clean.ranks > kMaxUnfoldedRanks) continue;  // folded-only tier
    built.options.fold_symmetry = false;
    const core::RunResult unfolded =
        core::run_des(built.app, built.arch, built.options);
    EXPECT_EQ(core::bit_difference(folded, unfolded), "") << path.stem();
    ++unfolded_runs;
  }
  EXPECT_GE(paths.size(), 21u);
  EXPECT_EQ(unfolded_runs, static_cast<int>(paths.size()) - 1);
}

TEST(Corpus, ResultTextIsThreadInvariant) {
  Scenario s;
  s.trials = 6;
  s.timesteps = 12;
  s.plan = {{ft::Level::kL1, 3, false}};
  s.inject_faults = true;
  s.node_mtbf_seconds = 400.0;
  const std::string serial = result_to_text(s, 1);
  EXPECT_EQ(result_to_text(s, 4), serial);
  EXPECT_NE(serial.find("ftbesst-verify-result v1"), std::string::npos);
}

/// Scratch corpus dir containing one trivial scenario.
fs::path make_scratch_corpus() {
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ftbesst-corpus-scratch";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Scenario s;
  s.trials = 2;
  s.timesteps = 3;
  std::ofstream(dir / "tiny.scenario") << s.to_text();
  return dir;
}

TEST(Corpus, MissingExpectedFileIsReportedAsMismatch) {
  const fs::path dir = make_scratch_corpus();
  const DiffReport report = replay_corpus(dir.string());
  ASSERT_EQ(report.failures.size(), 1u) << report.summary("corpus");
  EXPECT_EQ(report.failures[0].check, "golden");
  EXPECT_EQ(report.failures[0].entry, "tiny");
  // The report tells the operator how to record the baseline.
  EXPECT_NE(report.failures[0].detail.find("--update"), std::string::npos);
}

TEST(Corpus, RecordThenReplayIsCleanAndDriftIsDetected) {
  const fs::path dir = make_scratch_corpus();
  EXPECT_EQ(record_corpus(dir.string()), 1);
  const DiffReport clean = replay_corpus(dir.string());
  EXPECT_TRUE(clean.ok()) << clean.summary("corpus");
  EXPECT_EQ(clean.golden_checks, 1);

  // Tamper with one recorded byte: replay must name the divergence.
  std::string recorded;
  {
    std::ifstream in(dir / "tiny.expected");
    recorded.assign(std::istreambuf_iterator<char>(in), {});
  }
  recorded.back() = recorded.back() == '0' ? '1' : '0';
  std::ofstream(dir / "tiny.expected") << recorded;
  const DiffReport drift = replay_corpus(dir.string());
  ASSERT_EQ(drift.failures.size(), 1u);
  EXPECT_EQ(drift.failures[0].check, "golden");
  EXPECT_EQ(drift.failures[0].entry, "tiny");
  EXPECT_NE(drift.summary("corpus").find("entry=tiny"), std::string::npos);
}

TEST(Corpus, MissingOrEmptyDirectoryIsAnError) {
  EXPECT_THROW((void)replay_corpus("/nonexistent/corpus"),
               std::invalid_argument);
  const fs::path dir =
      fs::path(::testing::TempDir()) / "ftbesst-corpus-empty";
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream(dir / "notes.txt") << "not a scenario\n";
  try {
    (void)replay_corpus(dir.string());
    FAIL() << "an empty corpus must not pass";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(dir.string()), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)record_corpus(dir.string()), std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::verify
