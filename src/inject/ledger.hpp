#pragma once
// Per-application checkpoint ledger and recovery selection — the shared
// rollback brain of both execution engines (coarse BSP and DES).
//
// The ledger tracks, per FTI level, the most recent completed checkpoints
// (two retained: an async flush in flight must not evict the last usable
// snapshot). On a fault it selects the best recoverable record: the
// recoverability predicate in ft::fti decides which levels survive the
// failure set, then the most progressed (and, tie-breaking, deepest)
// checkpoint whose write had completed before the fault wins.
//
// Selection semantics are a field-exact port of the original run_bsp fault
// loop — the golden corpus byte-compares ensemble outputs, so any change
// here must keep crash/loss selection bit-identical.
//
// Silent-data-corruption freshness: a checkpoint taken *after* the
// corruption instant snapshots corrupted state and is poisoned. SDC faults
// therefore filter candidates by completion time against the corruption
// instant before the ordinary availability check (see ft::FailureKind).

#include <cstdint>
#include <map>
#include <vector>

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

  /// Drop records completed strictly after `time`. The DES engine calls
  /// this with the strike time when a fault is processed: records past the
  /// strike either never actually completed (the fail-stop fault rewound
  /// the timeline before their completion) or snapshot corrupted state
  /// (SDC), so neither may ever be selected. The coarse engine never needs
  /// it — it only records checkpoints that completed before the pending
  /// fault.
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

}  // namespace ftbesst::inject
