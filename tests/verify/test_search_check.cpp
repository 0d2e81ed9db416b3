#include "verify/search_check.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#ifndef FTBESST_CORPUS_DIR
#error "FTBESST_CORPUS_DIR must point at tests/corpus"
#endif

namespace ftbesst::verify {
namespace {

Scenario small_clean_scenario() {
  Scenario s;
  s.seed = 21;
  s.trials = 2;
  s.timesteps = 6;
  s.ranks = 4;
  s.kernel_cost = 0.02;
  s.plan = {{ft::Level::kL1, 2}};
  return s;
}

TEST(SearchCheck, DeriveGridBuildsPlanVariantsTimesParameterPoints) {
  const SearchGrid g = derive_search_grid(small_clean_scenario());
  EXPECT_GE(g.space.scenarios.size(), 3u);
  std::set<std::string> plans;
  for (const core::Scenario& v : g.space.scenarios)
    plans.insert(core::format_plan(v.plan));
  EXPECT_EQ(plans.size(), g.space.scenarios.size());  // all distinct
  EXPECT_TRUE(plans.count(""));                       // a No-FT variant
  EXPECT_TRUE(plans.count("L1:2"));                   // the plan itself
  ASSERT_FALSE(g.space.points.empty());
  for (const auto& p : g.space.points) {
    ASSERT_EQ(p.size(), 2u);  // {kernel_scale, ranks}
    EXPECT_GT(p[0], 0.0);
    EXPECT_GE(p[1], 4.0);
  }
  EXPECT_NO_THROW(g.space.validate());
}

TEST(SearchCheck, DerivedModelsPriceEveryCellOfTheGrid) {
  const SearchGrid g = derive_search_grid(small_clean_scenario());
  // Price the first and last cells directly; parameter-aware models must
  // serve both without rebinding.
  const std::vector<core::DseCell> cells{{0, 0}, {g.space.size() - 1, 0}};
  const auto points =
      core::run_dse_cells(g.space.scenarios, g.space.points, cells,
                          g.make_app, g.arch, g.options, 1, 1);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_GT(points[0].ensemble.total.mean, 0.0);
  EXPECT_GT(points[1].ensemble.total.mean, 0.0);
}

TEST(SearchCheck, CleanScenarioPassesEveryGate) {
  const DiffReport report =
      check_search_vs_exhaustive(small_clean_scenario());
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.scenarios, 1);
  EXPECT_GE(report.search_checks, 5);  // incl. the deterministic bandit gate
}

TEST(SearchCheck, RejectsScenariosThatCannotHostAGrid) {
  Scenario s = small_clean_scenario();
  s.timesteps = 0;
  DiffReport report = check_search_vs_exhaustive(s);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].check, "exception");

  s = small_clean_scenario();
  s.ranks = 1 << 20;  // exceeds the machine
  EXPECT_THROW((void)derive_search_grid(s), std::invalid_argument);
}

TEST(SearchCheck, GoldenSearchCorpusPassesTheAcceptanceGates) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const fs::directory_entry& e : fs::directory_iterator(FTBESST_CORPUS_DIR))
    if (e.path().extension() == ".scenario" &&
        e.path().stem().string().rfind("search_", 0) == 0)
      paths.push_back(e.path());
  std::sort(paths.begin(), paths.end());
  EXPECT_GE(paths.size(), 3u);  // the committed search_*.scenario set
  for (const fs::path& path : paths) {
    const DiffReport report =
        check_search_vs_exhaustive(Scenario::from_file(path.string()));
    EXPECT_TRUE(report.ok()) << path.stem() << ":\n"
                             << report.summary("search");
    EXPECT_GT(report.search_checks, 0) << path.stem();
  }
}

}  // namespace
}  // namespace ftbesst::verify
