#pragma once
// Model of the Fault Tolerance Interface (FTI) checkpointing library
// [Bautista-Gomez et al., SC'11], the FT technique of the paper's case
// study (Table I):
//
//   Level 1  checkpoint file saved on local node storage
//   Level 2  local save AND copy sent to partner node(s) in the FTI group
//   Level 3  checkpoint files Reed-Solomon-encoded across the group
//   Level 4  all checkpoint files flushed to the parallel file system
//
// FTI organizes nodes into groups of `group_size`; each node hosts
// `node_size` ranks; the number of ranks must be a multiple of
// group_size * node_size. Recoverability per level:
//   L1: survives process crashes (files intact) but not node loss;
//   L2: survives node losses as long as, for every lost node, at least one
//       of its partner nodes in the group survives;
//   L3: survives up to floor(group_size / 2) concurrent node losses per
//       group (Reed-Solomon with group_size/2 parity);
//   L4: survives any number of node losses (PFS is stable storage).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ftbesst::ft {

enum class Level : int { kL1 = 1, kL2 = 2, kL3 = 3, kL4 = 4 };

[[nodiscard]] std::string to_string(Level level);

/// What kind of failure hit a node.
enum class FailureKind {
  kProcessCrash,      ///< ranks die; node (and its local storage) survive
  kNodeLoss,          ///< node and its local checkpoint files are gone
  /// Silent data corruption (soft error): the application state is wrong
  /// but the node and every checkpoint file written *before* the
  /// corruption remain intact — storage-wise this recovers like a process
  /// crash, but checkpoints taken after the corruption instant are
  /// poisoned (they snapshot corrupted state) and must not be used.
  /// Enforced by the injection ledger (inject/ledger.hpp), not here.
  kSilentCorruption
};

[[nodiscard]] std::string to_string(FailureKind kind);
/// The inverse of to_string(FailureKind), the one kind parse for fault-log
/// text; throws std::invalid_argument on any other spelling.
[[nodiscard]] FailureKind parse_failure_kind(std::string_view text);

struct FtiConfig {
  int group_size = 4;  ///< nodes per FTI group
  int node_size = 2;   ///< ranks per node
  /// Partner copies kept by L2 (FTI sends to neighbours in the group ring).
  int l2_partners = 1;

  /// Validates group/node sizes and the rank-count constraint
  /// ("FTI requires the number of ranks to be a multiple of
  /// group_size * node_size"). Throws std::invalid_argument on violation.
  void validate(std::int64_t ranks) const;

  [[nodiscard]] std::int64_t nodes_for(std::int64_t ranks) const;
  [[nodiscard]] std::int64_t groups_for(std::int64_t ranks) const;
  [[nodiscard]] std::int64_t group_of_node(std::int64_t node) const {
    return node / group_size;
  }
};

/// A concurrent multi-node failure event: which nodes failed and how.
struct FailureSet {
  std::vector<std::int64_t> nodes;
  FailureKind kind = FailureKind::kNodeLoss;
};

/// Can a checkpoint taken at `level` be recovered after `failures`, given
/// the group structure? Implements the Table I semantics above.
[[nodiscard]] bool recoverable(Level level, const FtiConfig& config,
                               std::int64_t ranks,
                               const FailureSet& failures);

/// A checkpointing plan entry: take a `level` checkpoint every `period`
/// timesteps. A scenario holds one entry per active level (the case study's
/// "L1 & L2" scenario has two entries, both with period 40).
struct PlanEntry {
  Level level = Level::kL1;
  int period = 40;
  /// Asynchronous (staged) checkpoint, FTI's dedicated-process flush: the
  /// application pays only a local staging cost on the critical path while
  /// the full write proceeds in the background. The checkpoint only becomes
  /// usable for recovery once the background flush completes, and a new
  /// checkpoint stalls until the previous flush is done.
  bool async = false;
};

/// Deterministic checkpoint schedule over the timestep loop of an
/// iterative solver (Fig. 3 of the paper).
class CheckpointScheduler {
 public:
  explicit CheckpointScheduler(std::vector<PlanEntry> plan);

  /// Levels due after timestep `t` (1-based), in ascending level order.
  [[nodiscard]] std::vector<Level> due_after(int timestep) const;
  /// Full plan entries due after timestep `t`, ascending level order.
  [[nodiscard]] std::vector<PlanEntry> due_entries_after(int timestep) const;
  /// Total checkpoint instances of each plan entry over `timesteps`.
  [[nodiscard]] std::int64_t instances(int timesteps) const;
  [[nodiscard]] const std::vector<PlanEntry>& plan() const noexcept {
    return plan_;
  }
  /// Highest level in the plan (determines worst-failure recoverability).
  [[nodiscard]] Level max_level() const;
  [[nodiscard]] bool empty() const noexcept { return plan_.empty(); }

 private:
  std::vector<PlanEntry> plan_;
};

}  // namespace ftbesst::ft
