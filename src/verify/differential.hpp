#pragma once
// Cross-engine differential checking.
//
// A Scenario can be priced four ways: run_bsp, run_des, the analytic twin
// (verify/reference.*), and — for a statistically tractable subset — the
// Young/Daly closed form. They model the same physics, so they must agree
// within documented tolerances (see DiffTolerances); a disagreement means a
// regression in one of them. check_scenario runs every applicable
// comparison; run_differential drives it over a seeded scenario stream,
// shrinks any failure to a minimal reproducer, and (optionally) dumps the
// shrunk `.scenario` files for triage.
//
// Tolerance contract (documented in docs/TESTING.md):
//  * analytic twin vs run_bsp (clean, deterministic): relative 1e-9 —
//    identical math, different summation order.
//  * run_des vs run_bsp (clean, deterministic, no async entries — the DES
//    engine charges full checkpoint cost): relative 1e-8 plus an absolute
//    allowance of one simulator tick (1 ns) per executed instruction — the
//    PDES kernel quantizes every duration to integer nanoseconds
//    (sim/time.hpp), so quantization error grows with program length.
//    Totals and the per-timestep trace are both checked.
//  * run_des folded vs unfolded (clean, deterministic): bit-identical —
//    symmetry folding (sim/fold.hpp) is a pure execution-cost optimization
//    and must never change a prediction. Totals, the per-timestep trace,
//    checkpoint counts, and scaled instruction counters are all compared;
//    the folded run must also process no more events than the unfolded one.
//  * run_ensemble threads 1 vs N: bit-identical (memcmp on every double).
//  * Young/Daly expected runtime vs ensemble mean (eligible fault
//    scenarios): within a x1.6 multiplicative band — first-order waste
//    model vs simulated rollback, so only the scale must match.
//  * in-simulation injection (src/inject, every fault scenario):
//    injected run_des folded vs unfolded bit-identical (coordinated
//    rollback keeps fold groups symmetric); injection campaign threads
//    1 vs 4 bit-identical; and, on Young/Daly-eligible scenarios, the
//    campaign mean makespan within the same x1.6 band.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verify/scenario.hpp"

namespace ftbesst::verify {

struct DiffTolerances {
  double analytic_rel = 1e-9;
  double engine_rel = 1e-8;
  /// DES tick size (seconds): absolute slack of one tick per executed
  /// instruction on every des-vs-bsp comparison.
  double des_tick_seconds = 1e-9;
  double young_daly_band = 1.6;
  /// Trials used for the Young/Daly statistical leg (fixed so the check is
  /// deterministic per seed, large enough that the band holds).
  int young_daly_trials = 32;
};

struct DiffFailure {
  std::string check;   ///< "analytic_twin" | "des_vs_bsp" | "fold_vs_unfold"
                       ///< | "thread_bits" | "young_daly" | "inject_fold"
                       ///< | "inject_threads" | "inject_young_daly"
                       ///< | "search_vs_exhaustive" | "exception"
  std::string detail;  ///< human-readable disagreement description
  std::uint64_t generator_seed = 0;  ///< 0 when not generator-produced
  std::uint64_t scenario_index = 0;
  Scenario scenario;   ///< shrunk reproducer (== original if unshrinkable)
};

struct DiffReport {
  int scenarios = 0;
  int analytic_checks = 0;
  int engine_checks = 0;
  int fold_checks = 0;
  int thread_checks = 0;
  int young_daly_checks = 0;
  int inject_checks = 0;
  int inject_young_daly_checks = 0;
  int search_checks = 0;
  std::vector<DiffFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
  void merge(const DiffReport& other);
  /// One-line counts plus one block per failure (check, seed/index,
  /// detail, and the full scenario text for copy-paste reproduction).
  [[nodiscard]] std::string summary() const;
};

/// Run every applicable comparison for one scenario. `overrides` feeds the
/// regression-injection tests: a checkpoint_cost_scale != 1 mis-prices the
/// engines' checkpoint models (the analytic twin is computed from the
/// scenario alone and is immune), which MUST surface as an analytic_twin
/// failure. Exceptions from build/engines are captured as "exception"
/// failures, never thrown.
[[nodiscard]] DiffReport check_scenario(const Scenario& s,
                                        const DiffTolerances& tol = {},
                                        const BuildOverrides& overrides = {});

/// Greedy delta-debugging: repeatedly apply structure-removing
/// transformations (halve timesteps, drop plan entries, strip comm, drop
/// noise/faults, shrink ranks/trials) and keep any candidate for which
/// `still_fails` returns true, until a full pass makes no progress or
/// `budget` predicate evaluations are spent. Deterministic.
[[nodiscard]] Scenario shrink(
    const Scenario& start,
    const std::function<bool(const Scenario&)>& still_fails,
    int budget = 128);

/// Generate `scenarios` scenarios from `seed` and check each one. Failures
/// are shrunk (predicate: same check still fails) and, when `dump_dir` is
/// non-empty, written to `<dump_dir>/diff-<seed>-<index>-<check>.scenario`.
[[nodiscard]] DiffReport run_differential(int scenarios, std::uint64_t seed,
                                          const DiffTolerances& tol = {},
                                          const std::string& dump_dir = "");

}  // namespace ftbesst::verify
