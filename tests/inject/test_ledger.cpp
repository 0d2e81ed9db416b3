// RecoveryLedger record/trim, purge, and selection semantics, and the
// fault resolution both engines share (resolve_fault), driven by a scripted
// fault list with no engine involved.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "inject/ledger.hpp"

namespace ftbesst::inject {
namespace {

// group 2, node 2 -> 4 ranks over 2 nodes; one node loss leaves the ring
// partner alive, so L2 survives but L1 does not.
ft::FtiConfig toy_fti() { return ft::FtiConfig{2, 2, 1}; }

ft::FailureSet loss(std::int64_t node) {
  return ft::FailureSet{{node}, ft::FailureKind::kNodeLoss};
}

ft::FailureSet crash(std::int64_t node) {
  return ft::FailureSet{{node}, ft::FailureKind::kProcessCrash};
}

ft::FailureSet sdc(std::int64_t node) {
  return ft::FailureSet{{node}, ft::FailureKind::kSilentCorruption};
}

CheckpointRecord rec(int timesteps_done, double completed_at,
                     double available_at = -1.0) {
  CheckpointRecord r;
  r.resume_pc = static_cast<std::size_t>(timesteps_done);
  r.timesteps_done = timesteps_done;
  r.completed_at = completed_at;
  r.available_at = available_at < 0.0 ? completed_at : available_at;
  return r;
}

TEST(RecoveryLedger, KeepsNewestTwoRecordsPerLevel) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL1, rec(1, 10.0));
  ledger.record(ft::Level::kL1, rec(2, 20.0));
  ledger.record(ft::Level::kL1, rec(3, 30.0));
  // The t=10 record was evicted: selection limited to available_by=15
  // (only the evicted record would qualify) finds nothing.
  const auto none = ledger.select(toy_fti(), 4, crash(0), 15.0,
                                  RecoveryLedger::no_freshness_limit());
  EXPECT_EQ(none.record, nullptr);
  const auto newest = ledger.select(toy_fti(), 4, crash(0), 100.0,
                                    RecoveryLedger::no_freshness_limit());
  ASSERT_NE(newest.record, nullptr);
  EXPECT_EQ(newest.record->timesteps_done, 3);
}

TEST(RecoveryLedger, SelectsMostProgressedAcrossLevels) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL4, rec(2, 20.0));
  ledger.record(ft::Level::kL1, rec(4, 40.0));
  const auto sel = ledger.select(toy_fti(), 4, crash(0), 100.0,
                                 RecoveryLedger::no_freshness_limit());
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.record->timesteps_done, 4);
  EXPECT_EQ(sel.level, ft::Level::kL1);
}

TEST(RecoveryLedger, TieBreaksOnDeeperLevel) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL1, rec(4, 40.0));
  ledger.record(ft::Level::kL4, rec(4, 41.0));
  const auto sel = ledger.select(toy_fti(), 4, crash(0), 100.0,
                                 RecoveryLedger::no_freshness_limit());
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.level, ft::Level::kL4);
}

TEST(RecoveryLedger, UnrecoverableLevelsAreExcluded) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL1, rec(6, 60.0));
  ledger.record(ft::Level::kL2, rec(4, 40.0));
  // Node loss kills L1 (local files gone); the older L2 partner copy wins.
  const auto sel = ledger.select(toy_fti(), 4, loss(0), 100.0,
                                 RecoveryLedger::no_freshness_limit());
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.level, ft::Level::kL2);
  EXPECT_EQ(sel.record->timesteps_done, 4);
  // The same ledger under a mere crash restores the newer L1 snapshot.
  const auto c = ledger.select(toy_fti(), 4, crash(0), 100.0,
                               RecoveryLedger::no_freshness_limit());
  EXPECT_EQ(c.level, ft::Level::kL1);
  EXPECT_EQ(c.record->timesteps_done, 6);
}

TEST(RecoveryLedger, AsyncFlushNotYetAvailableIsSkipped) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL4, rec(2, 20.0));
  // Critical path done at t=40 but the background flush lands at t=90.
  ledger.record(ft::Level::kL4, rec(4, 40.0, 90.0));
  const auto sel = ledger.select(toy_fti(), 4, crash(0), 50.0,
                                 RecoveryLedger::no_freshness_limit());
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.record->timesteps_done, 2);
}

TEST(RecoveryLedger, SdcFreshnessSkipsPoisonedRecordWithoutConsumingLevel) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL4, rec(2, 20.0));
  ledger.record(ft::Level::kL4, rec(4, 40.0));
  // Corruption at t=30: the t=40 checkpoint snapshots corrupted state; the
  // pre-corruption t=20 record must still be found behind it.
  const auto sel = ledger.select(toy_fti(), 4, sdc(0), 100.0, 30.0);
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.record->timesteps_done, 2);
  // Corruption before every checkpoint: nothing clean -> full restart.
  const auto none = ledger.select(toy_fti(), 4, sdc(0), 100.0, 10.0);
  EXPECT_EQ(none.record, nullptr);
}

TEST(RecoveryLedger, PurgeAfterDropsRecordsPastTheStrike) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL4, rec(2, 20.0));
  ledger.record(ft::Level::kL4, rec(4, 40.0));
  ledger.purge_after(30.0);
  const auto sel = ledger.select(toy_fti(), 4, crash(0), 100.0,
                                 RecoveryLedger::no_freshness_limit());
  ASSERT_NE(sel.record, nullptr);
  EXPECT_EQ(sel.record->timesteps_done, 2);
  ledger.purge_after(10.0);
  EXPECT_EQ(ledger
                .select(toy_fti(), 4, crash(0), 100.0,
                        RecoveryLedger::no_freshness_limit())
                .record,
            nullptr);
}

TEST(RecoveryLedger, ClearEmptiesEverything) {
  RecoveryLedger ledger;
  ledger.record(ft::Level::kL1, rec(2, 20.0));
  ledger.record(ft::Level::kL4, rec(2, 21.0));
  EXPECT_FALSE(ledger.empty());
  ledger.clear();
  EXPECT_TRUE(ledger.empty());
  EXPECT_EQ(ledger
                .select(toy_fti(), 4, crash(0), 100.0,
                        RecoveryLedger::no_freshness_limit())
                .record,
            nullptr);
}

// --- resolve_fault ---

const ft::FtiConfig kFti{2, 2, 1};

ft::FaultEvent strike(double t,
                      ft::FailureKind kind = ft::FailureKind::kProcessCrash,
                      double detect_after = 0.0) {
  ft::FaultEvent ev;
  ev.time = t;
  ev.node = 1;
  ev.kind = kind;
  ev.detect_after = detect_after;
  return ev;
}

// A run reduced to what resolve_fault sees: a time-ordered fault list
// walked like the DES schedule (faults before `from` are skipped), a fixed
// restart cost, and a record of every callback.
struct Script {
  std::vector<ft::FaultEvent> faults;
  std::size_t pos = 0;
  double restart_seconds = 2.0;
  RecoveryParams params{&kFti, 4, 5.0, 1e8};
  RecoveryLedger ledger;
  FaultTally tally;
  std::vector<double> froms;
  std::vector<std::size_t> restart_pcs;

  RecoveryOutcome resolve(double clock) {
    const ft::FaultEvent first = faults[pos++];
    return resolve_fault(
        first, clock, params, ledger, tally,
        [this](double from) {
          froms.push_back(from);
          while (pos < faults.size() && faults[pos].time < from) ++pos;
          if (pos < faults.size()) return faults[pos++];
          ft::FaultEvent none;
          none.time = kNoFault;
          return none;
        },
        [this](std::size_t pc) {
          restart_pcs.push_back(pc);
          return restart_seconds;
        });
  }
};

TEST(ResolveFault, FullRestartWithoutAUsableCheckpoint) {
  Script run;
  run.faults = {strike(30.0, ft::FailureKind::kNodeLoss), strike(100.0)};
  // L1 dies with the node; nothing else was written.
  run.ledger.record(ft::Level::kL1, rec(2, 20.0));
  const RecoveryOutcome out = run.resolve(25.0);
  EXPECT_EQ(out.action, Recovery::kFullRestart);
  EXPECT_EQ(out.clock, 35.0);  // detect 30 + downtime 5
  EXPECT_EQ(out.resume_pc, 0u);
  EXPECT_EQ(out.timesteps_done, 0);
  EXPECT_EQ(out.next.time, 100.0);
  EXPECT_TRUE(run.ledger.empty());
  EXPECT_TRUE(run.restart_pcs.empty());
  EXPECT_EQ(run.tally.faults, 1);
  EXPECT_EQ(run.tally.full_restarts, 1);
  EXPECT_EQ(run.tally.rollbacks, 0);
  EXPECT_EQ(run.tally.lost_work_seconds, 30.0);
  ASSERT_EQ(run.tally.fault_log.size(), 1u);
  const ft::FaultRecord& r = run.tally.fault_log.records()[0];
  EXPECT_EQ(r.recovery_level, 0);
  EXPECT_EQ(r.lost_work_seconds, 30.0);
  EXPECT_EQ(r.restart_cost_seconds, 0.0);
  EXPECT_EQ(r.kind, ft::FailureKind::kNodeLoss);
}

TEST(ResolveFault, RollsBackToEachLevel) {
  for (int level = 1; level <= 4; ++level) {
    SCOPED_TRACE("L" + std::to_string(level));
    Script run;
    run.faults = {strike(50.0), strike(100.0)};
    run.restart_seconds = 0.5 * level;
    run.ledger.record(static_cast<ft::Level>(level), rec(4, 40.0));
    const RecoveryOutcome out = run.resolve(45.0);
    EXPECT_EQ(out.action, Recovery::kRollback);
    EXPECT_EQ(out.clock, 55.0 + 0.5 * level);
    EXPECT_EQ(out.resume_pc, 4u);
    EXPECT_EQ(out.timesteps_done, 4);
    EXPECT_EQ(out.next.time, 100.0);
    // The checkpoint instruction sits just before the resume point.
    EXPECT_EQ(run.restart_pcs, std::vector<std::size_t>{3});
    EXPECT_EQ(run.tally.faults, 1);
    EXPECT_EQ(run.tally.rollbacks, 1);
    EXPECT_EQ(run.tally.full_restarts, 0);
    EXPECT_EQ(run.tally.recoveries_by_level[level - 1], 1);
    EXPECT_EQ(run.tally.lost_work_seconds, 10.0);
    ASSERT_EQ(run.tally.fault_log.size(), 1u);
    const ft::FaultRecord& r = run.tally.fault_log.records()[0];
    EXPECT_EQ(r.recovery_level, level);
    EXPECT_EQ(r.lost_work_seconds, 10.0);
    EXPECT_EQ(r.restart_cost_seconds, 0.5 * level);
  }
}

TEST(ResolveFault, VoidedRecoveryLogsBothAttemptsAndCountsLostWorkOnce) {
  Script run;
  // The restart after the t=50 fault would end at 57; a fault at 56 kills
  // it. The second attempt resumes at 61 + 2 = 63.
  run.faults = {strike(50.0), strike(56.0), strike(200.0)};
  run.ledger.record(ft::Level::kL2, rec(4, 40.0));
  const RecoveryOutcome out = run.resolve(45.0);
  EXPECT_EQ(out.action, Recovery::kRollback);
  EXPECT_EQ(out.clock, 63.0);
  EXPECT_EQ(out.resume_pc, 4u);
  EXPECT_EQ(out.next.time, 200.0);
  EXPECT_EQ(run.froms, (std::vector<double>{55.0, 61.0}));
  EXPECT_EQ(run.tally.faults, 2);
  EXPECT_EQ(run.tally.rollbacks, 1);
  EXPECT_EQ(run.tally.recoveries_by_level[1], 1);
  // Only the attempt that succeeded counts: 56 - 40.
  EXPECT_EQ(run.tally.lost_work_seconds, 16.0);
  ASSERT_EQ(run.tally.fault_log.size(), 2u);
  EXPECT_EQ(run.tally.fault_log.records()[0].time, 50.0);
  EXPECT_EQ(run.tally.fault_log.records()[0].lost_work_seconds, 10.0);
  EXPECT_EQ(run.tally.fault_log.records()[1].time, 56.0);
  EXPECT_EQ(run.tally.fault_log.records()[1].lost_work_seconds, 16.0);
}

TEST(ResolveFault, SdcSkipsPoisonedNewerCheckpoint) {
  Script run;
  // Corruption at t=30, detected at 45: the t=40 checkpoint snapshots
  // corrupted state; the t=20 one is restored.
  run.faults = {strike(30.0, ft::FailureKind::kSilentCorruption, 15.0)};
  run.ledger.record(ft::Level::kL4, rec(2, 20.0));
  run.ledger.record(ft::Level::kL4, rec(4, 40.0));
  const RecoveryOutcome out = run.resolve(45.0);
  EXPECT_EQ(out.action, Recovery::kRollback);
  EXPECT_EQ(out.timesteps_done, 2);
  EXPECT_EQ(out.clock, 52.0);  // detect 45 + downtime 5 + restart 2
  EXPECT_EQ(out.next.time, kNoFault);
  EXPECT_EQ(run.froms, std::vector<double>{50.0});
  EXPECT_EQ(run.tally.lost_work_seconds, 25.0);  // 45 - 20
  ASSERT_EQ(run.tally.fault_log.size(), 1u);
  EXPECT_EQ(run.tally.fault_log.records()[0].detect_after, 15.0);
  // The poisoned record is gone for good.
  EXPECT_EQ(run.ledger
                .select(kFti, 4, crash(0), 100.0,
                        RecoveryLedger::no_freshness_limit())
                .record->timesteps_done,
            2);
}

TEST(ResolveFault, FaultsDuringTheOutageAreAbsorbed) {
  Script run;
  run.faults = {strike(50.0), strike(52.0), strike(54.9), strike(80.0)};
  run.ledger.record(ft::Level::kL1, rec(4, 40.0));
  const RecoveryOutcome out = run.resolve(45.0);
  EXPECT_EQ(out.action, Recovery::kRollback);
  EXPECT_EQ(out.clock, 57.0);
  EXPECT_EQ(out.next.time, 80.0);
  EXPECT_EQ(run.froms, std::vector<double>{55.0});
  EXPECT_EQ(run.tally.faults, 1);
  EXPECT_EQ(run.tally.fault_log.size(), 1u);
}

TEST(ResolveFault, AbandonsPastTheHorizon) {
  {  // Already past it: nothing is counted.
    Script run;
    run.params.max_sim_seconds = 40.0;
    run.faults = {strike(50.0)};
    const RecoveryOutcome out = run.resolve(45.0);
    EXPECT_EQ(out.action, Recovery::kAbandon);
    EXPECT_EQ(out.clock, 45.0);
    EXPECT_EQ(run.tally.faults, 0);
    EXPECT_EQ(run.tally.fault_log.size(), 0u);
  }
  {  // A voided recovery whose outage ends past it: the retry abandons.
    Script run;
    run.params.max_sim_seconds = 54.0;
    run.faults = {strike(50.0), strike(56.0)};
    run.ledger.record(ft::Level::kL1, rec(4, 40.0));
    const RecoveryOutcome out = run.resolve(45.0);
    EXPECT_EQ(out.action, Recovery::kAbandon);
    EXPECT_EQ(out.clock, 55.0);
    EXPECT_EQ(run.tally.faults, 1);
    EXPECT_EQ(run.tally.rollbacks, 0);
    EXPECT_EQ(run.tally.lost_work_seconds, 0.0);
    EXPECT_EQ(run.tally.fault_log.size(), 1u);
  }
}

}  // namespace
}  // namespace ftbesst::inject
