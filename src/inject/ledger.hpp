#pragma once
// Per-application checkpoint ledger and fault resolution — the one rollback
// brain of both execution engines (coarse BSP and DES).
//
// The ledger tracks, per FTI level, the most recent completed checkpoints
// (two retained: an async flush in flight must not evict the last usable
// snapshot). On a fault it selects the best recoverable record: the
// recoverability predicate in ft::fti decides which levels survive the
// failure set, then the most progressed (and, tie-breaking, deepest)
// checkpoint whose write had completed before the fault wins.
//
// resolve_fault() runs the whole recovery of one fault on top of it:
// downtime, selection, restart cost, and further faults that kill the
// recovery itself. Both engines call it, so coarse and DES injected runs
// resolve recovery identically by construction. An engine supplies only
// its clock, its next-fault source and its restart-cost draw, and reacts to
// the returned outcome.
//
// Selection semantics are a field-exact port of the original run_bsp fault
// loop — the golden corpus byte-compares ensemble outputs, so any change
// here must keep crash/loss selection bit-identical.
//
// Silent-data-corruption freshness: a checkpoint taken *after* the
// corruption instant snapshots corrupted state and is poisoned. SDC faults
// therefore filter candidates by completion time against the corruption
// instant before the ordinary availability check (see ft::FailureKind).

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "ft/fault_log.hpp"
#include "ft/faults.hpp"
#include "ft/fti.hpp"

namespace ftbesst::inject {

/// Rollback target: resume execution at `resume_pc` with `timesteps_done`
/// completed timesteps (wall clock never rolls back). The checkpoint itself
/// is the instruction at `resume_pc - 1`; the engines price its restart
/// cost from there (core::PricedProgram::restart_cost).
struct CheckpointRecord {
  std::size_t resume_pc = 0;
  int timesteps_done = 0;
  /// Wall-clock time at which this checkpoint becomes usable for recovery
  /// (later than its critical-path completion for async flushes).
  double available_at = 0.0;
  /// Wall-clock time the critical-path write finished — the left edge of
  /// the lost-work window, and the SDC freshness timestamp (state is
  /// snapshotted by then; a record with completed_at after the corruption
  /// instant is poisoned).
  double completed_at = 0.0;
};

/// Result of a recovery selection. `record == nullptr` means no usable
/// checkpoint survived: restart the application from the beginning.
struct RecoverySelection {
  const CheckpointRecord* record = nullptr;
  ft::Level level = ft::Level::kL1;
};

class RecoveryLedger {
 public:
  /// Record a completed checkpoint at `level`. Keeps the newest two records
  /// per level.
  void record(ft::Level level, CheckpointRecord rec) {
    auto& records = available_[level];
    records.push_back(std::move(rec));
    if (records.size() > 2) records.erase(records.begin());
  }

  /// Drop every record (full restart: all prior state is discarded).
  void clear() { available_.clear(); }

  /// Drop records completed strictly after `time`. resolve_fault calls
  /// this with the strike time of every fault: records past the strike
  /// either never actually completed (the fail-stop fault rewound the
  /// timeline before their completion) or snapshot corrupted state (SDC),
  /// so neither may ever be selected. For the coarse engine it is a no-op:
  /// that engine only records checkpoints completed before the pending
  /// strike.
  void purge_after(double time) {
    for (auto& [level, records] : available_) {
      std::erase_if(records, [time](const CheckpointRecord& r) {
        return r.completed_at > time;
      });
    }
  }

  [[nodiscard]] bool empty() const noexcept { return available_.empty(); }

  /// Best (most progressed, then highest-level) recoverable checkpoint
  /// whose (possibly background) write had completed by `available_by`,
  /// restricted to records completed no later than `fresh_by` (pass
  /// `no_freshness_limit()` for crash/loss faults; the corruption instant
  /// for SDC). Recoverability of each level against `failures` comes from
  /// ft::recoverable.
  [[nodiscard]] RecoverySelection select(const ft::FtiConfig& config,
                                         std::int64_t ranks,
                                         const ft::FailureSet& failures,
                                         double available_by,
                                         double fresh_by) const;

  [[nodiscard]] static constexpr double no_freshness_limit() noexcept {
    return 1e300;
  }

 private:
  /// Recent completed checkpoints per level, newest last.
  std::map<ft::Level, std::vector<CheckpointRecord>> available_;
};

/// Strike time of "no further fault": later than any simulated instant.
inline constexpr double kNoFault = 1e300;

/// Recovery tallies of one run (core::RunResult carries them).
struct FaultTally {
  int faults = 0;         ///< faults that struck during execution
  int rollbacks = 0;      ///< recoveries from a checkpoint
  int full_restarts = 0;  ///< unrecoverable failures (restart from start)
  /// Wall-clock seconds of execution discarded by rollbacks: per fault, the
  /// window from the restored checkpoint's completion (application start
  /// for a full restart) to the fault's detection.
  double lost_work_seconds = 0.0;
  /// Successful rollbacks that restored a level-L checkpoint, at index L-1.
  std::array<int, 4> recoveries_by_level{};
  /// Per-fault campaign records (strike time, node, kind, recovery level
  /// chosen, lost work, restart cost). Trial ids are 0 here; the ensemble
  /// and campaign drivers re-tag per trial. Exportable as CSV and as the
  /// replayable `ftbesst-faultlog v1` text format (ft/fault_log.hpp).
  ft::FaultLog fault_log;
};

/// The run-wide constants of recovery.
struct RecoveryParams {
  const ft::FtiConfig* fti = nullptr;  ///< recoverability of each level
  std::int64_t ranks = 0;
  /// Outage after detection before recovery can begin (reboot/replace).
  double downtime_seconds = 0.0;
  /// A run whose clock passes this is abandoned.
  double max_sim_seconds = 1e8;
};

enum class Recovery { kAbandon, kFullRestart, kRollback };

/// What an engine does after a fault. kAbandon: the horizon was exceeded at
/// `clock`; mark the run incomplete. Otherwise resume at `clock` from
/// program counter `resume_pc` with `timesteps_done` completed timesteps
/// (both 0 for a full restart), with `next` as the pending fault
/// (time kNoFault when none remains).
struct RecoveryOutcome {
  Recovery action = Recovery::kAbandon;
  double clock = 0.0;
  std::size_t resume_pc = 0;
  int timesteps_done = 0;
  ft::FaultEvent next;
};

/// First fault striking at or after `from` (time kNoFault when none).
using NextFault = std::function<ft::FaultEvent(double from)>;
/// Restart cost of recovering from the checkpoint instruction at `pc`.
using RestartCost = std::function<double(std::size_t pc)>;

/// Resolve `fault`, which interrupted the run at wall-clock `clock`. Each
/// attempt: abandon past the horizon; count the fault; purge records
/// completed after the strike; wait out detection plus downtime; draw the
/// next fault; select a checkpoint (SDC: only records completed before the
/// strike). With none, restart from the beginning and clear the ledger.
/// Otherwise price the restart; if the next fault strikes before the
/// restart completes, log the voided attempt and resolve that fault next
/// (the lost work is counted once, by the attempt that succeeds). Each
/// counted fault is tallied and logged in `tally` and reported to obs.
[[nodiscard]] RecoveryOutcome resolve_fault(ft::FaultEvent fault, double clock,
                                            const RecoveryParams& params,
                                            RecoveryLedger& ledger,
                                            FaultTally& tally,
                                            const NextFault& next_fault,
                                            const RestartCost& restart_cost);

}  // namespace ftbesst::inject
