#include "inject/ledger.hpp"

#include "obs/obs.hpp"

namespace ftbesst::inject {

RecoverySelection RecoveryLedger::select(const ft::FtiConfig& config,
                                         std::int64_t ranks,
                                         const ft::FailureSet& failures,
                                         double available_by,
                                         double fresh_by) const {
  RecoverySelection best;
  for (const auto& [level, records] : available_) {
    if (!ft::recoverable(level, config, ranks, failures)) continue;
    for (auto it = records.rbegin(); it != records.rend(); ++it) {
      const CheckpointRecord& record = *it;
      // Poisoned by the corruption instant: skip without consuming the
      // per-level pick (an older, pre-corruption record may still win).
      if (record.completed_at > fresh_by) continue;
      if (record.available_at > available_by) continue;
      if (!best.record ||
          record.timesteps_done > best.record->timesteps_done ||
          (record.timesteps_done == best.record->timesteps_done &&
           static_cast<int>(level) > static_cast<int>(best.level))) {
        best.record = &record;
        best.level = level;
      }
      break;  // records are ordered; the newest usable one wins
    }
  }
  return best;
}

namespace {

// Observability counters shared by both engines, so coarse and DES
// injected runs report under the same names:
//   inject.faults.{crash,loss,sdc}   faults that struck a running app
//   inject.rollbacks.l{1..4}         recoveries per restored FTI level
//   inject.full_restarts             unrecoverable faults
//   inject.lost_work_ns              discarded execution, nanoseconds

void obs_note_fault(ft::FailureKind kind) {
  if (!obs::enabled()) return;
  static const obs::Counter crash = obs::counter("inject.faults.crash");
  static const obs::Counter loss = obs::counter("inject.faults.loss");
  static const obs::Counter sdc = obs::counter("inject.faults.sdc");
  switch (kind) {
    case ft::FailureKind::kProcessCrash: crash.add(); break;
    case ft::FailureKind::kNodeLoss: loss.add(); break;
    case ft::FailureKind::kSilentCorruption: sdc.add(); break;
  }
}

/// `level` 1..4 for a rollback to that FTI level, 0 for a full restart.
void obs_note_recovery(int level, double lost_work_seconds) {
  if (!obs::enabled()) return;
  static const obs::Counter l1 = obs::counter("inject.rollbacks.l1");
  static const obs::Counter l2 = obs::counter("inject.rollbacks.l2");
  static const obs::Counter l3 = obs::counter("inject.rollbacks.l3");
  static const obs::Counter l4 = obs::counter("inject.rollbacks.l4");
  static const obs::Counter restarts = obs::counter("inject.full_restarts");
  static const obs::Counter lost = obs::counter("inject.lost_work_ns");
  switch (level) {
    case 1: l1.add(); break;
    case 2: l2.add(); break;
    case 3: l3.add(); break;
    case 4: l4.add(); break;
    default: restarts.add(); break;
  }
  if (lost_work_seconds > 0.0)
    lost.add(static_cast<std::uint64_t>(lost_work_seconds * 1e9));
}

}  // namespace

RecoveryOutcome resolve_fault(ft::FaultEvent fault, double clock,
                              const RecoveryParams& params,
                              RecoveryLedger& ledger, FaultTally& tally,
                              const NextFault& next_fault,
                              const RestartCost& restart_cost) {
  RecoveryOutcome out;
  for (;;) {
    if (clock > params.max_sim_seconds) {
      out.action = Recovery::kAbandon;
      out.clock = clock;
      return out;
    }
    ++tally.faults;
    obs_note_fault(fault.kind);
    // Strike = when state is damaged; detect = when recovery can react.
    // Identical for fail-stop faults (detect_after is 0).
    const double strike = fault.time;
    const double detect = fault.time + fault.detect_after;
    ft::FaultRecord rec;
    rec.time = strike;
    rec.node = fault.node;
    rec.kind = fault.kind;
    rec.detect_after = fault.detect_after;

    ledger.purge_after(strike);
    clock = detect + params.downtime_seconds;
    // Faults striking during the outage are absorbed by it.
    out.next = next_fault(clock);

    const bool sdc = fault.kind == ft::FailureKind::kSilentCorruption;
    const RecoverySelection best =
        ledger.select(*params.fti, params.ranks,
                      ft::FailureSet{{fault.node}, fault.kind}, detect,
                      sdc ? strike : RecoveryLedger::no_freshness_limit());
    if (best.record == nullptr) {
      // Unrecoverable: restart the application from the beginning.
      ++tally.full_restarts;
      ledger.clear();
      rec.recovery_level = 0;
      rec.lost_work_seconds = detect;
      tally.lost_work_seconds += detect;
      tally.fault_log.add(rec);
      obs_note_recovery(0, detect);
      out.action = Recovery::kFullRestart;
      out.clock = clock;
      return out;
    }
    const double cost = restart_cost(best.record->resume_pc - 1);
    rec.recovery_level = static_cast<int>(best.level);
    rec.lost_work_seconds = detect - best.record->completed_at;
    rec.restart_cost_seconds = cost;
    if (clock + cost > out.next.time) {
      // Recovery killed by the next fault: log the voided attempt, but
      // leave the lost-work total to the fault that finally resolves (its
      // discarded window subsumes this one).
      tally.fault_log.add(rec);
      fault = out.next;
      continue;
    }
    ++tally.rollbacks;
    ++tally.recoveries_by_level[rec.recovery_level - 1];
    tally.lost_work_seconds += rec.lost_work_seconds;
    tally.fault_log.add(rec);
    obs_note_recovery(rec.recovery_level, rec.lost_work_seconds);
    out.action = Recovery::kRollback;
    out.clock = clock + cost;
    out.resume_pc = best.record->resume_pc;
    out.timesteps_done = best.record->timesteps_done;
    return out;
  }
}

}  // namespace ftbesst::inject
