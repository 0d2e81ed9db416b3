#pragma once
// The coarse-grained BE evaluation engine (bulk-synchronous fast path).
//
// "The simulator 'executes' the abstract instructions in the AppBEO. Each
// instruction ... causes the simulator to poll the ArchBEO to determine the
// runtime for that event and advance the simulator clock."
//
// Applications modeled here (iterative solvers with coordinated
// checkpointing, Fig. 3) are bulk-synchronous, so the engine advances a
// single coordinated clock per abstract instruction. Per-instruction
// durations are read from a PricedProgram: the bound models are priced
// once per (AppBEO, ArchBEO), and a run takes each median as is
// (deterministic) or draws Monte-Carlo noise around it. A discrete-event
// twin (engine_des) executes the same programs per-rank on the PDES kernel,
// from the same table, and is cross-validated against this engine in the
// test suite.
//
// Fault injection (Cases 2 and 4 of the paper's Fig. 4) replays the
// program against a sampled fault timeline with FTI-level-aware rollback.

#include <cstdint>
#include <string>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "ft/faults.hpp"
#include "inject/ledger.hpp"
#include "model/perf_model.hpp"
#include "util/rng.hpp"

namespace ftbesst::core {

struct EngineOptions {
  std::uint64_t seed = 1;
  /// Draw stochastic durations (Monte-Carlo mode) instead of expectations.
  bool monte_carlo = false;
  /// Inject faults from the ArchBEO's fault process (Cases 2/4). Without a
  /// fault process on the architecture this is an error. Both engines
  /// honour this: the coarse engine samples a system-level renewal process
  /// on the fly; the DES engine (src/inject) pre-materializes per-node
  /// schedules and replays recovery inside the event kernel. The DES path
  /// additionally injects the ArchBEO's SDC process when one is set, and
  /// rejects use_des_network (in-flight flow deliveries cannot be rolled
  /// back).
  bool inject_faults = false;
  /// Replay a RECORDED failure trace instead of sampling the fault process
  /// (times are absolute simulation seconds, time-ordered). Used to
  /// re-run an observed incident log (ftbesst faultlog / ft::fault_log)
  /// against candidate checkpoint plans. When non-empty this takes
  /// precedence over the fault process; inject_faults must still be set.
  /// Both engines reject a malformed trace (inject::validate_schedule over
  /// ArchBEO::fault_nodes) with std::invalid_argument.
  std::vector<ft::FaultEvent> fault_trace;
  /// Downtime before recovery can begin after a failure (node reboot /
  /// replacement), seconds.
  double downtime_seconds = 60.0;
  /// Safety horizon: a run that exceeds this wall-clock is marked
  /// incomplete (the no-FT + high-fault-rate regime can thrash forever).
  double max_sim_seconds = 1e8;
  /// Fraction of an asynchronous checkpoint's cost paid on the critical
  /// path (the local staging copy); the remainder flushes in the
  /// background (FTI's dedicated-process mode). Coarse engine only.
  double async_stage_fraction = 0.15;
  /// DES engine only: execute neighbor-exchange instructions through the
  /// discrete-event fat-tree network (net::DesNetwork) instead of the
  /// analytic collective model — per-port serialization and real contention.
  /// Requires the ArchBEO topology to be a TwoStageFatTree; ignored by the
  /// coarse engine.
  bool use_des_network = false;
  /// DES engine only: collapse symmetric ranks — same AppBEO plan, same
  /// architecture config, isomorphic link signature (sim/fold.hpp) — to one
  /// representative component per equivalence class, carrying the class
  /// multiplicity. Predictions are bitwise identical to the unfolded run;
  /// only the event count shrinks. Folding is automatically disabled (every
  /// rank is its own class) when `monte_carlo` is set, because per-rank RNG
  /// streams make every rank behaviourally distinct, and when
  /// `use_des_network` is set, because ranks then occupy distinct network
  /// positions. See ARCHITECTURE.md, "Scaling the DES core".
  bool fold_symmetry = true;
};

/// One run's prediction. The recovery tallies (faults, rollbacks,
/// full_restarts, lost_work_seconds, recoveries_by_level, fault_log) come
/// from inject::FaultTally, which inject::resolve_fault fills.
struct RunResult : inject::FaultTally {
  double total_seconds = 0.0;
  /// Cumulative wall-clock at each solver timestep boundary (the curves of
  /// the paper's Figs. 7-8).
  std::vector<double> timestep_end_times;
  /// Timestep indices (1-based) after which a checkpoint completed — the
  /// black dots of Figs. 7-8.
  std::vector<int> checkpoint_timesteps;
  std::uint64_t instructions_executed = 0;
  /// Events dispatched by the PDES kernel (0 for the coarse engine). A
  /// diagnostic, not a prediction: folding shrinks it while leaving every
  /// prediction field identical, so it is deliberately excluded from the
  /// verify corpus text format.
  std::uint64_t sim_events = 0;
  bool completed = true;
};

/// An AppBEO priced against an ArchBEO once, read by every run of both
/// engines. Per instruction it holds the resolved model and its
/// model::Price (compute and checkpoint), the analytic duration (exchange,
/// allreduce, barrier; 0 for timestep markers), and for a checkpoint the
/// price of restarting from it (the level's restart model at the
/// checkpoint's params). A draw from the table makes the same RNG calls and
/// returns the same doubles as sampling the models in place, so an ensemble
/// that builds it once is bit-identical to one that prices every trial.
/// Refers to `app` and `arch`, which must outlive it.
class PricedProgram {
 public:
  PricedProgram(const AppBEO& app, const ArchBEO& arch);

  [[nodiscard]] const AppBEO& app() const noexcept { return *app_; }
  [[nodiscard]] const ArchBEO& arch() const noexcept { return *arch_; }
  /// Duration of instruction `pc`: its median, or with `monte_carlo` one
  /// draw from `rng`.
  [[nodiscard]] double duration(std::size_t pc, bool monte_carlo,
                                util::Rng& rng) const {
    return draw(durations_[pc], pc, monte_carlo, rng);
  }
  /// Restart cost of recovering from the checkpoint at `pc` (0 when its
  /// level has no restart model); same draw rule as duration().
  [[nodiscard]] double restart_cost(std::size_t pc, bool monte_carlo,
                                    util::Rng& rng) const {
    return draw(restarts_[pc], pc, monte_carlo, rng);
  }
  /// Throws std::out_of_range if the program references a kernel with no
  /// bound model. The engines call it after their argument checks, so an
  /// std::invalid_argument still wins over an unbound kernel.
  void require_bound() const;

 private:
  struct Slot {
    const model::PerfModel* model = nullptr;  ///< null: fixed price
    model::Price price;
  };
  [[nodiscard]] double draw(const Slot& slot, std::size_t pc,
                            bool monte_carlo, util::Rng& rng) const {
    if (!monte_carlo || slot.price.kind == model::DrawKind::kFixed)
      return slot.price.median;
    return slot.model->draw(slot.price, app_->program()[pc].params, rng);
  }

  const AppBEO* app_;
  const ArchBEO* arch_;
  std::vector<Slot> durations_;  ///< per instruction
  std::vector<Slot> restarts_;   ///< per instruction; checkpoints only
  std::string unbound_;          ///< first kernel with no bound model
};

/// Execute `app` on `arch`, or a program already priced from them.
/// Throws std::out_of_range if the AppBEO references a kernel with no
/// bound model, std::invalid_argument on rank/architecture mismatches.
[[nodiscard]] RunResult run_bsp(const PricedProgram& program,
                                const EngineOptions& options = {});
[[nodiscard]] RunResult run_bsp(const AppBEO& app, const ArchBEO& arch,
                                const EngineOptions& options = {});

}  // namespace ftbesst::core
