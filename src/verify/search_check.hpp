#pragma once
// The search_vs_exhaustive differential leg.
//
// A verify Scenario describes ONE pricing problem; guided search explores a
// GRID of them. derive_search_grid() turns a scenario into the small
// co-design grid around it — checkpoint-plan variants of its plan (No-FT,
// the plan itself, sparser/denser periods, one extra protection level) x
// {kernel-scale, ranks} parameter points — with the work/checkpoint/restart
// models rebuilt as parameter-aware PerfModels so one prepared ArchBEO
// prices every cell of the grid (the plain build() binds constants computed
// from the scenario's fixed ranks, which would misprice every other cell).
//
// check_search_vs_exhaustive() then prices the grid both ways and holds the
// guided search to this acceptance contract:
//   * bit identity: SearchResult::to_text() at threads=1 equals threads=pool
//   * budget: charged evaluations <= ceil(budget_fraction x grid cells) and
//     charged trial units never exceed the granted budget
//   * optimum: the GP search's best objective is bit-equal to the exhaustive
//     grid minimum (same cell seeds, so equality is exact, not approximate)
//   * Pareto: the searched {objective x recoverability} front
//     dominates-or-equals the exhaustive front
//   * bandit (deterministic scenarios only): successive halving at full
//     budget also lands on the exhaustive optimum bit-exactly
//
// The corpus pass (verify/corpus.hpp) runs the leg on every committed
// `tests/corpus/search_*.scenario` machine, as bench_ext_search does.

#include <functional>
#include <string>
#include <vector>

#include "core/workflow.hpp"
#include "search/search.hpp"
#include "verify/differential.hpp"
#include "verify/scenario.hpp"

namespace ftbesst::verify {

/// A scenario's derived co-design grid, ready for run_dse / run_search_dse.
struct SearchGrid {
  search::SearchSpace space;
  core::ArchBEO arch;          ///< parameter-aware models bound
  core::EngineOptions options;
  std::function<core::AppBEO(const core::Scenario&,
                             const std::vector<double>&)>
      make_app;
};

/// Build the grid: plan variants x {kernel_scale, ranks} points. Throws
/// std::invalid_argument when the scenario cannot host a grid (timesteps or
/// trials < 1, ranks exceed the machine).
[[nodiscard]] SearchGrid derive_search_grid(const Scenario& s);

/// Run every search-vs-exhaustive comparison for one scenario (see the
/// header comment). Exceptions are captured as "exception" failures.
[[nodiscard]] DiffReport check_search_vs_exhaustive(
    const Scenario& s, double budget_fraction = 0.10);

}  // namespace ftbesst::verify
