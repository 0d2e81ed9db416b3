#pragma once
// Failure-log analysis.
//
// The paper's Co-Design section: hardware "failure rates ... can be found
// through various means, such as documentation or failure logs [Jauk et
// al.]". This module closes that loop: given an observed fault-event log
// (from a real machine, or from FaultProcess::sample in simulation
// studies), estimate the fault-model parameters to feed back into an
// ArchBEO — per-node MTBF, the Weibull shape of the interarrival process
// (moment matching on the coefficient of variation), and the node-loss
// fraction.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "ft/faults.hpp"

namespace ftbesst::ft {

/// One injected-fault outcome as recorded by a campaign: when and where the
/// fault struck, how (if at all) the application recovered, and what it
/// cost. `recovery_level` is the FTI level of the checkpoint restored from
/// (1..4), or 0 for a full restart from the beginning of the run.
struct FaultRecord {
  std::int64_t trial = 0;    ///< Monte-Carlo trial index the fault belongs to
  double time = 0.0;         ///< seconds since application start
  std::int64_t node = 0;     ///< node struck
  FailureKind kind = FailureKind::kNodeLoss;
  double detect_after = 0.0;       ///< detection latency (SDC only; else 0)
  int recovery_level = 0;          ///< 1..4 = FTI level restored; 0 = restart
  double lost_work_seconds = 0.0;  ///< work discarded by the rollback
  double restart_cost_seconds = 0.0;  ///< read-back / relaunch cost paid
};

/// Campaign-level record of every injected fault and its recovery outcome.
/// Serializes to CSV (for analysis via the standard table writers) and to a
/// versioned text format the injector re-ingests for exact replay:
/// `to_trace(trial)` recovers the FaultEvent sequence of one trial, suitable
/// for EngineOptions::fault_trace. A campaign log knows how many trials it
/// covers (trials with no fault have no record) and is written as
/// `ftbesst-faultlog v2` with a `trials N` line; a single run's log, whose
/// trial count is unset, is written as `ftbesst-faultlog v1`.
class FaultLog {
 public:
  void add(FaultRecord record) { records_.push_back(record); }
  /// Append another log's records re-tagged with trial id `trial`.
  void append_trial(const FaultLog& other, std::int64_t trial);
  /// The number of trials the log covers; 0 = unknown (a v1 log).
  void set_trials(std::size_t trials) noexcept { trials_ = trials; }
  [[nodiscard]] std::size_t trials() const noexcept { return trials_; }

  [[nodiscard]] const std::vector<FaultRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Stable, re-ingestable text form. Doubles are emitted with shortest
  /// round-trip formatting so from_text(to_text(log)) is bit-exact.
  [[nodiscard]] std::string to_text() const;
  /// Strict parser for to_text output (v1 or v2); throws
  /// std::invalid_argument on a bad magic or trials line, a malformed
  /// record, an unknown failure kind, or a v2 record whose trial is out of
  /// range.
  [[nodiscard]] static FaultLog from_text(std::string_view text);

  /// CSV export via the standard table writer (header + one row per fault).
  void write_csv(std::ostream& os) const;

  /// The fault schedule of one trial, time-ordered, ready to be replayed
  /// through EngineOptions::fault_trace. Throws std::out_of_range on a
  /// negative trial, or on one at or past trials() when that is known.
  [[nodiscard]] std::vector<FaultEvent> to_trace(std::int64_t trial) const;

 private:
  std::vector<FaultRecord> records_;
  std::size_t trials_ = 0;
};

struct FaultModelEstimate {
  double node_mtbf = 0.0;        ///< seconds (system MTBF * node count)
  double system_mtbf = 0.0;      ///< mean interarrival over the machine
  double weibull_shape = 1.0;    ///< 1 = exponential; <1 bursty; >1 regular
  double node_loss_fraction = 1.0;
  std::size_t events = 0;
};

/// Estimate the fault model from a time-ordered event log covering a
/// machine of `nodes` nodes. Requires >= 3 events (two interarrival gaps);
/// throws std::invalid_argument otherwise or on out-of-order logs.
[[nodiscard]] FaultModelEstimate estimate_fault_model(
    const std::vector<FaultEvent>& events, std::int64_t nodes);

/// Invert the Weibull coefficient of variation: find shape k such that
/// cv(k) = sqrt(Gamma(1+2/k)/Gamma(1+1/k)^2 - 1) equals `cv`
/// (bisection on k in [0.2, 10]; clamped at the ends).
[[nodiscard]] double weibull_shape_from_cv(double cv);

}  // namespace ftbesst::ft
