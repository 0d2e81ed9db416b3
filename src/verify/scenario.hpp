#pragma once
// A Scenario is a complete, self-contained description of one FT-BESST
// pricing problem: the machine (topology, comm parameters, FTI layout,
// storage speeds), the application (timestep structure, kernel cost, comm
// volume, checkpoint plan), the fault process, and the run parameters
// (seed, trials). Every engine in the repo — run_bsp, run_des, the analytic
// closed forms, and the Monte-Carlo fault-injection path — can price a
// Scenario, which is what makes cross-engine differential checking
// possible.
//
// Scenarios round-trip through a line-oriented `.scenario` text format
// (`to_text` / `from_text`) so that a disagreement found by the randomized
// checker can be shrunk, dumped, committed to `tests/corpus/`, and replayed
// forever. The format is versioned; parsing is strict (unknown keys are
// errors) but omitted keys take the documented defaults, so hand-written
// corpus entries stay concise.

#include <cstdint>
#include <string>
#include <vector>

#include "core/arch.hpp"
#include "core/beo.hpp"
#include "core/engine_bsp.hpp"
#include "ft/checkpoint_cost.hpp"
#include "ft/fti.hpp"
#include "net/comm.hpp"
#include "util/rng.hpp"

namespace ftbesst::verify {

struct Scenario {
  // --- run parameters ---
  std::uint64_t seed = 1;
  int trials = 8;
  bool monte_carlo = false;      ///< sample() model durations per trial
  double noise_sigma = 0.0;      ///< NoisyModel log-sigma on the work kernel
  /// max_sim_seconds = horizon_multiplier x the clean-run closed form, so a
  /// thrashing no-FT configuration cannot spin the engine forever.
  double horizon_multiplier = 1000.0;
  double async_stage_fraction = 0.15;

  // --- machine ---
  int leaves = 2;                ///< TwoStageFatTree leaf switches
  int nodes_per_leaf = 4;
  int spines = 1;
  int ranks_per_node = 2;
  net::CommParams comm;
  ft::FtiConfig fti{2, 2, 1};
  ft::StorageParams storage;

  // --- application ---
  std::int64_t ranks = 4;
  int timesteps = 10;
  double kernel_cost = 1.0;      ///< seconds per timestep of the work kernel
  int exchange_degree = 0;       ///< 0 = no halo exchange
  std::uint64_t exchange_bytes = 0;
  std::uint64_t allreduce_bytes = 0;  ///< 0 = no allreduce
  bool barrier = false;
  std::uint64_t ckpt_bytes_per_rank = 1u << 20;
  std::vector<ft::PlanEntry> plan;

  // --- fault process ---
  bool inject_faults = false;
  double node_mtbf_seconds = 0.0;
  double loss_fraction = 1.0;
  double weibull_shape = 1.0;
  double downtime_seconds = 1.0;

  [[nodiscard]] bool has_async() const noexcept;

  /// Canonical text form: fixed key order, shortest round-trip doubles.
  /// from_text(to_text(s)) reproduces every field; to_text is a fixpoint.
  [[nodiscard]] std::string to_text() const;
  /// Parse a `.scenario` document. Throws std::invalid_argument naming the
  /// offending line on bad headers, unknown keys, or malformed values.
  /// Omitted keys keep their defaults.
  [[nodiscard]] static Scenario from_text(const std::string& text);
  /// from_text on the contents of a `.scenario` file. Throws
  /// std::invalid_argument naming `path` when it cannot be read.
  [[nodiscard]] static Scenario from_file(const std::string& path);
};

/// Canonical plan spelling ("L1:40,L4:100a", "" for No-FT) — the same
/// grammar core::parse_plan accepts.
[[nodiscard]] std::string plan_to_string(const std::vector<ft::PlanEntry>& plan);

/// Everything an engine needs to price the scenario. The arch binds the
/// work kernel, one ConstantModel per plan level evaluated through
/// ft::CheckpointCostModel, and the matching restart models.
struct BuiltScenario {
  core::AppBEO app;
  core::ArchBEO arch;
  core::EngineOptions options;
};

/// Regression-injection hooks for the differential checker's own tests: a
/// scale != 1 mis-prices the checkpoint (or restart) models exactly the way
/// a bug in ft::CheckpointCostModel would, which must be caught by the
/// analytic-twin check.
struct BuildOverrides {
  double checkpoint_cost_scale = 1.0;
  double restart_cost_scale = 1.0;
};

/// Materialize the scenario. Throws std::invalid_argument when the
/// scenario is internally inconsistent (ranks exceed the machine, FTI rank
/// constraint violated by a checkpointing plan, non-positive MTBF, ...).
[[nodiscard]] BuiltScenario build(const Scenario& s,
                                  const BuildOverrides& overrides = {});

/// Seeded, deterministic random scenario source. The same seed yields the
/// same scenario sequence on every platform, so a CI failure log's
/// (seed, index) pair is a complete reproducer.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(std::uint64_t seed);
  [[nodiscard]] Scenario next();
  [[nodiscard]] std::uint64_t index() const noexcept { return index_; }

 private:
  util::Rng rng_;
  std::uint64_t index_ = 0;
};

}  // namespace ftbesst::verify
