#include "core/engine_bsp.hpp"

#include <algorithm>
#include <stdexcept>

#include "inject/ledger.hpp"
#include "inject/schedule.hpp"
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
  // Node universe for faults/recoverability, shared with the DES engine.
  const std::int64_t nodes = arch.fault_nodes(app.ranks());
  if (options.inject_faults && replay)
    inject::validate_schedule(options.fault_trace, nodes);
  priced.require_bound();

  const auto& program = app.program();
  util::Rng rng(options.seed);
  util::Rng fault_rng = rng.split(0x0fau);

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
  // the replay trace) after each strike. Without injection it never
  // strikes.
  std::size_t trace_pos = 0;
  auto next_fault = [&](double from) -> ft::FaultEvent {
    if (!replay)
      return arch.fault_process()->next_after(from, nodes, fault_rng);
    while (trace_pos < options.fault_trace.size() &&
           options.fault_trace[trace_pos].time < from)
      ++trace_pos;
    if (trace_pos < options.fault_trace.size())
      return options.fault_trace[trace_pos++];
    ft::FaultEvent none;
    none.time = inject::kNoFault;
    return none;
  };
  ft::FaultEvent pending;
  pending.time = -1.0;
  if (options.inject_faults) pending = next_fault(0.0);
  const inject::RecoveryParams recovery{&arch.fti(), app.ranks(),
                                        options.downtime_seconds,
                                        options.max_sim_seconds};

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
      // Silent corruptions (only possible via a replay trace here; the
      // sampled process is fail-stop) are simplified by the coarse engine:
      // the interrupted instruction stops at the strike and the detection
      // latency is charged as extra outage, so no poisoned checkpoint is
      // ever taken. The DES engine models the corrupted-execution window.
      const inject::RecoveryOutcome out = inject::resolve_fault(
          pending, clock, recovery, ledger, result, next_fault,
          [&](std::size_t at) {
            return priced.restart_cost(at, options.monte_carlo, rng);
          });
      clock = out.clock;
      if (out.action == inject::Recovery::kAbandon) {
        result.completed = false;
        break;
      }
      pending = out.next;
      pc = out.resume_pc;
      ts_done = out.timesteps_done;
      async_busy_until = clock;  // any in-flight background flush is moot
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
