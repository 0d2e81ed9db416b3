#pragma once
// The two-phase BE-SST workflow (Fig. 2), FT-aware:
//
//   Phase 1 — Model Development: fit a performance model per instrumented
//   kernel from its calibration dataset (symbolic regression by default,
//   matching the paper's case study), validate each (MAPE, Table III), and
//   bind the results into an ArchBEO.
//
//   Phase 2 — HW/SW Co-Design: run full-system simulations over the design
//   space (scenarios x parameters) and compare FT levels by their overhead
//   (Fig. 9).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/montecarlo.hpp"
#include "model/dataset.hpp"
#include "model/fitting.hpp"

namespace ftbesst::core {

/// Result of developing one kernel's model.
struct KernelModelReport {
  std::string kernel;
  model::FitReport fit;
};

/// Phase-1 output: per-kernel models (deterministic + Monte-Carlo) plus
/// the validation reports.
struct ModelSuite {
  std::map<std::string, model::FittedKernel> kernels;
  std::vector<KernelModelReport> reports;

  /// Bind every fitted kernel into `arch` (noisy variants, so Monte-Carlo
  /// simulation reproduces calibration variance).
  void bind_into(ArchBEO& arch) const;
};

/// Fit models for every (kernel name -> calibration dataset) pair, one
/// shared-pool task per kernel. The suite is the same for any pool width;
/// if fits fail, the first failing kernel in map order's exception is
/// rethrown.
[[nodiscard]] ModelSuite develop_models(
    const std::map<std::string, model::Dataset>& calibration,
    const model::FitOptions& options = {});

/// A named fault-tolerance scenario of the co-design phase: which
/// checkpoint levels run, at what period (e.g. "No FT", "L1", "L1 & L2").
struct Scenario {
  std::string name;
  std::vector<ft::PlanEntry> plan;
};

/// Parse a textual checkpoint plan: comma-separated `L<level>:<period>`
/// entries, e.g. "L1:40,L2:40"; a trailing `a` marks an asynchronous
/// (staged) checkpoint ("L4:100a"). Empty text is the valid "No FT" plan.
/// This is the single plan grammar shared by the CLI and the prediction
/// service, so malformed client input fails here with a clean
/// std::invalid_argument naming the offending entry — never deeper in the
/// engine. Rejected: bad syntax, levels outside 1-4, periods < 1, and
/// duplicate levels.
[[nodiscard]] std::vector<ft::PlanEntry> parse_plan(const std::string& text);

/// Validate an already-built plan with the same rules as parse_plan
/// (duplicate levels, period < 1, level range). Throws
/// std::invalid_argument with the reason.
void validate_plan(const std::vector<ft::PlanEntry>& plan);

/// Canonical textual spelling of a plan — the inverse of parse_plan
/// ("L1:40,L4:100a"; empty string for the No-FT plan). Round-trips:
/// parse_plan(format_plan(p)) == p for any valid plan.
[[nodiscard]] std::string format_plan(const std::vector<ft::PlanEntry>& plan);

/// One cell of the co-design sweep.
struct DsePoint {
  std::string scenario;
  std::vector<double> params;  ///< sweep coordinates (e.g. {epr, ranks})
  EnsembleResult ensemble;
};

/// Full-system DSE sweep: for every scenario and parameter point, build an
/// application via `make_app` and run a Monte-Carlo ensemble. Points run as
/// tasks on the shared util::TaskPool and their ensembles fan trials onto
/// the same pool (threads: 0 = pool, 1 = fully serial on the calling
/// thread). Per-point seeds are pre-derived, so results are bit-identical
/// for any threads value. `make_app` and the bound models must be safe to
/// invoke concurrently (pure functions of their arguments, as all bundled
/// builders are).
[[nodiscard]] std::vector<DsePoint> run_dse(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::vector<double>>& parameter_points,
    const std::function<AppBEO(const Scenario&, const std::vector<double>&)>&
        make_app,
    const ArchBEO& arch, const EngineOptions& options, std::size_t trials,
    unsigned threads = 0);

/// One requested cell of a (possibly partial) DSE evaluation.
struct DseCell {
  /// Scenario-major grid index: scenario_index * parameter_points.size() +
  /// point_index — the submission order of the exhaustive run_dse sweep.
  std::size_t flat = 0;
  /// Monte-Carlo trials for this cell; 0 means the sweep-wide default.
  /// Per-trial seeds are split from the cell seed by trial index, so a
  /// t-trial evaluation is a bit-exact prefix of the T-trial one.
  std::size_t trials = 0;
};

/// Evaluate an arbitrary subset of the {scenario x point} grid. Cell
/// `flat` receives the exact per-point seed the exhaustive run_dse sweep
/// would give it (options.seed + 0x9e37 * (flat + 1)), so a cell priced
/// here at full trials is bit-identical to the matching entry of
/// run_dse's output — guided search results are verifiable against the
/// exhaustive grid down to the last bit. Results are returned in `cells`
/// order; threads semantics match run_dse (0 = shared pool, 1 = serial).
[[nodiscard]] std::vector<DsePoint> run_dse_cells(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::vector<double>>& parameter_points,
    const std::vector<DseCell>& cells,
    const std::function<AppBEO(const Scenario&, const std::vector<double>&)>&
        make_app,
    const ArchBEO& arch, const EngineOptions& options,
    std::size_t default_trials, unsigned threads = 0);

/// Trial-unit ledger for budget-aware search: one unit = one Monte-Carlo
/// trial of one cell, so a full-trials evaluation costs `trials` units and
/// the exhaustive sweep costs cells * trials. Plain accounting — callers
/// decide what to do when the budget is exhausted.
class DseBudget {
 public:
  explicit DseBudget(double total_units) : total_(total_units) {}
  /// Budget for evaluating `fraction` of an exhaustive cells x trials sweep.
  [[nodiscard]] static DseBudget fraction_of(std::size_t cells,
                                             std::size_t trials,
                                             double fraction) {
    return DseBudget(fraction * static_cast<double>(cells) *
                     static_cast<double>(trials));
  }
  [[nodiscard]] double total() const noexcept { return total_; }
  [[nodiscard]] double used() const noexcept { return used_; }
  [[nodiscard]] double remaining() const noexcept {
    return total_ > used_ ? total_ - used_ : 0.0;
  }
  void charge(double units) noexcept { used_ += units; }

 private:
  double total_ = 0.0;
  double used_ = 0.0;
};

}  // namespace ftbesst::core
