#include "search/search.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ftbesst::search {
namespace {

SearchSpace two_scenario_space() {
  SearchSpace s;
  s.scenarios = {{"plain", {}}, {"l1", {{ft::Level::kL1, 4}}}};
  for (double a = 1.0; a <= 6.0; a += 1.0)
    for (double b = 10.0; b <= 40.0; b += 10.0) s.points.push_back({a, b});
  return s;  // 2 x 24 = 48 cells
}

/// Smooth deterministic objective with a unique minimum at flat 9
/// (scenario "plain", point {3, 20}); the "l1" scenario costs +0.5.
double objective(const SearchSpace& s, std::size_t flat) {
  const std::vector<double>& p = s.points[s.point_of(flat)];
  return 1.0 + 0.1 * std::abs(p[0] - 3.0) + 0.01 * std::abs(p[1] - 20.0) +
         (s.scenario_of(flat) == 1 ? 0.5 : 0.0);
}

Evaluator make_evaluator(const SearchSpace& s) {
  return [&s](const std::vector<core::DseCell>& cells) {
    std::vector<double> out(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i)
      out[i] = objective(s, cells[i].flat);
    return out;
  };
}

TEST(Search, GpFindsTheMinimumWithinAModestBudget) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kGp;
  opt.seed = 3;
  opt.trials = 8;
  opt.budget_fraction = 0.5;
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  EXPECT_EQ(r.method_used, Method::kGp);
  EXPECT_EQ(r.best.flat, 9u);
  EXPECT_DOUBLE_EQ(r.best.objective, objective(space, 9));
  EXPECT_EQ(r.best.scenario, "plain");
}

TEST(Search, BudgetAccountingIsExact) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kGp;
  opt.trials = 4;
  opt.budget_fraction = 0.25;
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  EXPECT_DOUBLE_EQ(r.budget_units, 0.25 * 48.0 * 4.0);
  EXPECT_LE(r.trial_units, r.budget_units);
  EXPECT_EQ(r.evaluations, r.history.size());
  EXPECT_LE(r.evaluations,
            static_cast<std::size_t>(r.budget_units / 4.0));
  double charged = 0.0;
  for (const EvaluatedCell& c : r.history) {
    EXPECT_FALSE(c.warm);
    EXPECT_EQ(c.trials, 4u);
    charged += static_cast<double>(c.trials);
  }
  EXPECT_DOUBLE_EQ(charged, r.trial_units);
}

TEST(Search, BitIdenticalAcrossRerunsAndThreadSettings) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kGp;
  opt.mode = Mode::kPareto;
  opt.seed = 11;
  opt.trials = 8;
  opt.budget_fraction = 0.3;
  opt.threads = 1;
  const SearchResult a = run_search(space, opt, make_evaluator(space));
  const SearchResult b = run_search(space, opt, make_evaluator(space));
  EXPECT_EQ(a.to_text(), b.to_text());
  opt.threads = 0;
  const SearchResult c = run_search(space, opt, make_evaluator(space));
  EXPECT_EQ(a.to_text(), c.to_text());
}

TEST(Search, WarmObservationsAreFreeAndUsed) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kGp;
  opt.trials = 8;
  opt.budget_units = 8.0;  // affords exactly one cold evaluation
  std::vector<WarmObservation> warm;
  for (std::size_t f = 0; f < space.size(); ++f)
    warm.push_back({f, objective(space, f)});
  const SearchResult r =
      run_search(space, opt, make_evaluator(space), warm);
  EXPECT_EQ(r.warm_hits, space.size());
  EXPECT_EQ(r.evaluations, 0u);  // everything already known
  EXPECT_DOUBLE_EQ(r.trial_units, 0.0);
  EXPECT_EQ(r.best.flat, 9u);
  EXPECT_TRUE(r.best.warm);
}

TEST(Search, BanditModeFindsTheMinimumAndReportsItself) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kBandit;
  opt.trials = 8;
  opt.budget_fraction = 1.0;
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  EXPECT_EQ(r.method_used, Method::kBandit);
  EXPECT_EQ(r.best.flat, 9u);
  EXPECT_DOUBLE_EQ(r.best.objective, objective(space, 9));
}

TEST(Search, AutoPrefersGpOnSmallSpacesAndBanditOnHuge) {
  const SearchSpace small = two_scenario_space();
  SearchOptions opt;
  opt.trials = 4;
  opt.budget_fraction = 0.2;
  EXPECT_EQ(run_search(small, opt, make_evaluator(small)).method_used,
            Method::kGp);

  SearchSpace huge;
  huge.scenarios = {{"only", {}}};
  for (double v = 0.0; v < 3000.0; v += 1.0) huge.points.push_back({v});
  // Its points have one coordinate, so its evaluator reads only p[0].
  const Evaluator one_coordinate =
      [&huge](const std::vector<core::DseCell>& cells) {
        std::vector<double> out;
        for (const core::DseCell& c : cells)
          out.push_back(std::abs(huge.points[huge.point_of(c.flat)][0] - 3.0));
        return out;
      };
  EXPECT_EQ(run_search(huge, opt, one_coordinate).method_used,
            Method::kBandit);
}

TEST(Search, ParetoModeRecoversBothFrontSegments) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kGp;
  opt.mode = Mode::kPareto;
  opt.trials = 8;
  opt.budget_fraction = 1.0;  // evaluate everything: the front is exact
  opt.fti = ft::FtiConfig{2, 2, 1};
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  ASSERT_EQ(r.pareto.size(), 2u);
  EXPECT_EQ(r.pareto[0].flat, 9u);        // best "plain" cell, recov 0
  EXPECT_EQ(r.pareto[1].flat, 24u + 9u);  // best "l1" cell, recov > 0
  EXPECT_GT(r.pareto[1].recoverability, r.pareto[0].recoverability);
  EXPECT_GT(r.pareto[1].objective, r.pareto[0].objective);
}

TEST(Search, ToTextIsACanonicalRendering) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.trials = 4;
  opt.budget_fraction = 0.2;
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  const std::string text = r.to_text();
  EXPECT_NE(text.find("ftbesst-search v1"), std::string::npos);
  EXPECT_NE(text.find("\nbest "), std::string::npos);
  EXPECT_NE(text.find("\nhistory "), std::string::npos);
}

TEST(Search, RejectsUnusableConfigurations) {
  const SearchSpace space = two_scenario_space();
  SearchOptions opt;
  opt.method = Method::kBandit;
  opt.mode = Mode::kPareto;
  EXPECT_THROW((void)run_search(space, opt, make_evaluator(space)),
               std::invalid_argument);

  SearchOptions tiny;
  tiny.trials = 8;
  tiny.budget_units = 1.0;  // less than one evaluation, no warm starts
  EXPECT_THROW((void)run_search(space, tiny, make_evaluator(space)),
               std::invalid_argument);

  SearchSpace empty;
  SearchOptions ok;
  EXPECT_THROW((void)run_search(empty, ok, make_evaluator(space)),
               std::invalid_argument);
}

TEST(Search, UnaffordableBudgetStatesWhatOneCellNeeds) {
  // Six cells at the default 10% fraction and 2 trials: 0.1 * 6 * 2 units
  // (1.2000000000000002 in binary64), less than the 2 one cell costs.
  SearchSpace space;
  space.scenarios = {{"x", {{ft::Level::kL1, 40}}}};
  for (double epr : {8.0, 12.0, 16.0})
    for (double ranks : {8.0, 64.0}) space.points.push_back({epr, ranks});
  SearchOptions opt;
  opt.trials = 2;
  try {
    (void)run_search(space, opt, make_evaluator(space));
    FAIL() << "a 1.2-unit budget priced a 2-unit cell";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "search budget cannot afford a single evaluation: one cell "
                 "costs 2 units at 2 trials, the budget has "
                 "1.2000000000000002 units; the "
                 "smallest --budget-frac (budget_fraction) that affords one "
                 "cell of this 6-cell space is 0.16666666666666666");
  }
  // The fraction the message names is enough.
  opt.budget_fraction = 0.16666666666666666;
  const SearchResult r = run_search(space, opt, make_evaluator(space));
  EXPECT_EQ(r.evaluations, 1u);
}

}  // namespace
}  // namespace ftbesst::search
