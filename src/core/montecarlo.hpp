#pragma once
// Monte-Carlo trial driver.
//
// "Because actual machine performance is non-deterministic due to noise and
// other factors, BE-SST implements Monte Carlo simulations to capture the
// variance that exists in the calibration samples ... each of the points on
// the graph represent a distribution of results."
//
// run_trials is the one trial loop; run_ensemble and inject::run_campaign
// are its entry points, and bit_difference is the one bitwise comparison.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine_bsp.hpp"
#include "ft/fault_log.hpp"
#include "util/stats.hpp"

namespace ftbesst::core {

struct EnsembleResult {
  util::Summary total;                ///< distribution of total runtime (s)
  std::vector<double> totals;         ///< per-trial totals
  std::vector<double> mean_timestep_end;  ///< mean cumulative trace
  double mean_faults = 0.0;
  double mean_rollbacks = 0.0;
  double mean_full_restarts = 0.0;
  std::size_t incomplete_trials = 0;  ///< trials that hit the horizon
  // Injection statistics (zero when inject_faults is off).
  double mean_lost_work = 0.0;  ///< mean discarded execution per trial (s)
  /// Mean rollbacks that restored a level-L checkpoint, at index L-1.
  std::array<double, 4> mean_recoveries_by_level{};
  /// Every trial's fault records, re-tagged with the trial index, and the
  /// trial count. FaultLog::to_trace(trial) + EngineOptions::fault_trace
  /// replays any single trial exactly.
  ft::FaultLog fault_log;
};

/// One run of a priced program: run_bsp or run_des.
using TrialEngine = RunResult (*)(const PricedProgram&, const EngineOptions&);

/// Run `trials` replications of `engine` with `options`, each under its own
/// seed derived from options.seed before any trial is scheduled. `threads`
/// 1 runs them inline; any other value runs one task per trial on the
/// shared util::TaskPool (composing with an enclosing run_dse sweep). The
/// result is bit-identical whatever `threads` is. Throws
/// std::invalid_argument on zero trials.
[[nodiscard]] EnsembleResult run_trials(const AppBEO& app, const ArchBEO& arch,
                                        const EngineOptions& options,
                                        std::size_t trials, unsigned threads,
                                        TrialEngine engine);

/// run_trials of the coarse engine with monte_carlo forced on: each trial
/// draws fresh model noise (and, when enabled, a fresh fault timeline).
[[nodiscard]] EnsembleResult run_ensemble(const AppBEO& app,
                                          const ArchBEO& arch,
                                          EngineOptions options,
                                          std::size_t trials,
                                          unsigned threads = 0);

/// The first field in which two runs differ bit for bit, or "" when they
/// are identical. Every prediction field is compared, fault-log bytes
/// included; the sim_events diagnostic is not (folding changes it).
[[nodiscard]] std::string bit_difference(const RunResult& a,
                                         const RunResult& b);

/// The first field in which two ensembles differ bit for bit, or "" when
/// they are identical. Every field is compared, fault-log bytes included.
[[nodiscard]] std::string bit_difference(const EnsembleResult& a,
                                         const EnsembleResult& b);

}  // namespace ftbesst::core
