#include "core/engine_bsp.hpp"

#include <algorithm>
#include <stdexcept>

#include "inject/ledger.hpp"
#include "inject/obs_hooks.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace ftbesst::core {

PricedProgram::PricedProgram(const AppBEO& app, const ArchBEO& arch)
    : app_(&app), arch_(&arch) {
  const auto& program = app.program();
  durations_.resize(program.size());
  restarts_.resize(program.size());
  for (std::size_t pc = 0; pc < program.size(); ++pc) {
    const Instr& instr = program[pc];
    Slot& slot = durations_[pc];
    switch (instr.kind) {
      case InstrKind::kCompute:
      case InstrKind::kCheckpoint: {
        const std::string& name = instr.kernel;
        if (!arch.has_kernel(name)) {
          if (unbound_.empty()) unbound_ = name;
          continue;
        }
        slot.model = &arch.kernel(name);
        slot.price = slot.model->price(instr.params);
        break;
      }
      case InstrKind::kNeighborExchange:
        slot.price.median = arch.comm().neighbor_exchange_time(
            app.ranks(), instr.degree, instr.bytes);
        break;
      case InstrKind::kAllReduce:
        slot.price.median =
            arch.comm().allreduce_time(app.ranks(), instr.bytes);
        break;
      case InstrKind::kBarrier:
        slot.price.median = arch.comm().barrier_time(app.ranks());
        break;
      case InstrKind::kTimestepEnd:
        break;
    }
    if (instr.kind != InstrKind::kCheckpoint) continue;
    if (const model::PerfModel* rm = arch.restart(instr.level)) {
      restarts_[pc].model = rm;
      restarts_[pc].price = rm->price(instr.params);
    }
  }
}

void PricedProgram::require_bound() const {
  if (!unbound_.empty()) (void)arch_->kernel(unbound_);  // throws
}

RunResult run_bsp(const AppBEO& app, const ArchBEO& arch,
                  const EngineOptions& options) {
  return run_bsp(PricedProgram(app, arch), options);
}

RunResult run_bsp(const PricedProgram& priced, const EngineOptions& options) {
  // Counter only, no span: run_bsp is the per-trial engine (thousands of
  // μs-scale calls per ensemble), so a span here would dominate the obs
  // enabled cost and flood the trace rings; the ensemble/DSE spans already
  // bracket this path at a useful granularity.
  if (obs::enabled()) {
    static const obs::Counter runs = obs::counter("bsp.runs");
    runs.add();
  }
  const AppBEO& app = priced.app();
  const ArchBEO& arch = priced.arch();
  if (app.ranks() > arch.max_ranks())
    throw std::invalid_argument(
        "application ranks exceed architecture capacity");
  const bool replay = !options.fault_trace.empty();
  if (options.inject_faults && !replay && !arch.fault_process())
    throw std::invalid_argument(
        "fault injection requested but ArchBEO has no fault process");
  for (std::size_t i = 1; i < options.fault_trace.size(); ++i)
    if (options.fault_trace[i].time < options.fault_trace[i - 1].time)
      throw std::invalid_argument("fault trace must be time-ordered");
  priced.require_bound();

  const auto& program = app.program();
  util::Rng rng(options.seed);
  util::Rng fault_rng = rng.split(0x0fau);
  // Node universe for faults/recoverability: the FTI run configuration
  // (node_size ranks per node) when it applies, else physical packing.
  const std::int64_t nodes =
      (arch.fti().node_size > 0 && app.ranks() % arch.fti().node_size == 0)
          ? app.ranks() / arch.fti().node_size
          : (app.ranks() + arch.ranks_per_node() - 1) / arch.ranks_per_node();

  RunResult result;
  result.timestep_end_times.assign(
      static_cast<std::size_t>(app.timesteps()), 0.0);

  double clock = 0.0;
  std::size_t pc = 0;
  int ts_done = 0;
  // Background-flush channel for asynchronous checkpoints.
  double async_busy_until = 0.0;
  // Completed checkpoints and recovery selection (shared with the DES
  // injection engine; see inject/ledger.hpp).
  inject::RecoveryLedger ledger;

  // The pending fault event (time/node/kind); re-drawn (or advanced along
  // the replay trace) after each strike.
  std::size_t trace_pos = 0;
  auto draw_next_fault = [&](double from) {
    ft::FaultEvent ev;
    ev.time = -1.0;
    if (!options.inject_faults) return ev;
    if (replay) {
      while (trace_pos < options.fault_trace.size() &&
             options.fault_trace[trace_pos].time < from)
        ++trace_pos;
      if (trace_pos < options.fault_trace.size())
        ev = options.fault_trace[trace_pos++];
      return ev;
    }
    return arch.fault_process()->next_after(from, nodes, fault_rng);
  };
  ft::FaultEvent pending = draw_next_fault(0.0);

  // Handle the pending fault (and any further faults that strike during
  // recovery itself — recovery work is lost and retried, so wall clock is
  // strictly monotone). Silent corruptions (only possible via a replay
  // trace here; the sampled process is fail-stop) are simplified by the
  // coarse engine: the interrupted instruction stops at the strike and the
  // detection latency is charged as extra outage before the downtime, so
  // no poisoned checkpoints are ever taken — the freshness filter then
  // excludes anything completed after the corruption instant. The DES
  // engine models the full corrupted-execution window.
  auto handle_fault = [&]() {
    for (;;) {
      if (clock > options.max_sim_seconds) {
        result.completed = false;
        pc = program.size();  // abandon the run
        return;
      }
      ++result.faults;
      ft::FailureSet failures;
      failures.nodes = {pending.node};
      failures.kind = pending.kind;
      const bool sdc = pending.kind == ft::FailureKind::kSilentCorruption;
      // Strike = when state is damaged; detect = when recovery can react.
      // Identical for fail-stop faults (detect_after is 0).
      const double strike_time = pending.time;
      const double detect_time = pending.time + pending.detect_after;
      inject::obs_note_fault(pending.kind);
      ft::FaultRecord fault_rec;
      fault_rec.time = strike_time;
      fault_rec.node = pending.node;
      fault_rec.kind = pending.kind;
      fault_rec.detect_after = pending.detect_after;

      clock = detect_time + options.downtime_seconds;
      async_busy_until = clock;  // any in-flight background flush is moot
      pending = draw_next_fault(clock);
      if (pending.time < 0.0) pending.time = 1e300;  // trace exhausted

      // Best (most progressed, then highest) recoverable checkpoint whose
      // (possibly background) write had completed before the fault struck
      // — and, for SDC, that snapshotted state from before the corruption.
      const inject::RecoverySelection best = ledger.select(
          arch.fti(), app.ranks(), failures, detect_time,
          sdc ? strike_time : inject::RecoveryLedger::no_freshness_limit());
      if (best.record == nullptr) {
        // Unrecoverable: restart the application from the beginning.
        ++result.full_restarts;
        pc = 0;
        ts_done = 0;
        ledger.clear();
        fault_rec.recovery_level = 0;
        fault_rec.lost_work_seconds = detect_time;
        result.lost_work_seconds += detect_time;
        result.fault_log.add(fault_rec);
        inject::obs_note_recovery(0, detect_time);
        return;
      }
      const double restart_cost = priced.restart_cost(
          best.record->resume_pc - 1, options.monte_carlo, rng);
      fault_rec.recovery_level = static_cast<int>(best.level);
      fault_rec.lost_work_seconds = detect_time - best.record->completed_at;
      fault_rec.restart_cost_seconds = restart_cost;
      if (clock + restart_cost > pending.time) {
        // Recovery killed by the next fault: log the voided attempt, but
        // leave the lost-work total to the fault that finally resolves (its
        // discarded window subsumes this one).
        result.fault_log.add(fault_rec);
        continue;
      }
      clock += restart_cost;
      ++result.rollbacks;
      ++result.recoveries_by_level[static_cast<int>(best.level) - 1];
      result.lost_work_seconds += fault_rec.lost_work_seconds;
      result.fault_log.add(fault_rec);
      inject::obs_note_recovery(static_cast<int>(best.level),
                                fault_rec.lost_work_seconds);
      pc = best.record->resume_pc;
      ts_done = best.record->timesteps_done;
      return;
    }
  };

  while (pc < program.size()) {
    if (clock > options.max_sim_seconds) {
      result.completed = false;
      break;
    }
    const Instr& instr = program[pc];
    double duration = priced.duration(pc, options.monte_carlo, rng);
    double background = 0.0;
    if (instr.kind == InstrKind::kCheckpoint && instr.async) {
      // Stall until the previous background flush drains, stage locally,
      // and push the remainder of the write off the critical path.
      const double stall = std::max(0.0, async_busy_until - clock);
      const double stage = options.async_stage_fraction * duration;
      background = duration - stage;
      duration = stall + stage;
    }
    if (pending.time >= 0.0 && clock + duration > pending.time) {
      handle_fault();
      continue;  // re-execute from the rollback point
    }
    clock += duration;
    ++result.instructions_executed;
    switch (instr.kind) {
      case InstrKind::kTimestepEnd:
        if (ts_done < app.timesteps())
          result.timestep_end_times[static_cast<std::size_t>(ts_done)] =
              clock;
        ++ts_done;
        break;
      case InstrKind::kCheckpoint: {
        inject::CheckpointRecord rec;
        rec.resume_pc = pc + 1;
        rec.timesteps_done = ts_done;
        rec.available_at = clock + background;
        rec.completed_at = clock;
        if (instr.async) async_busy_until = clock + background;
        ledger.record(instr.level, std::move(rec));
        if (result.checkpoint_timesteps.empty() ||
            result.checkpoint_timesteps.back() != ts_done)
          result.checkpoint_timesteps.push_back(ts_done);
        break;
      }
      default:
        break;
    }
    ++pc;
  }

  // FTI finalization waits for any trailing background flush.
  if (result.completed) clock = std::max(clock, async_busy_until);
  result.total_seconds = clock;
  return result;
}

}  // namespace ftbesst::core
