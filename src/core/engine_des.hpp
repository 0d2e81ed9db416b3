#pragma once
// Discrete-event BE engine: the same AppBEO/ArchBEO contract as run_bsp,
// executed as a component-based simulation on the PDES kernel (sim/) the
// way BE-SST rides on SST.
//
// One RankComponent per simulated MPI rank walks the program; local compute
// advances that rank's clock via self-events; every synchronizing
// instruction (exchange, allreduce, barrier, checkpoint, timestep boundary)
// routes through a Coordinator component that waits for all ranks, applies
// the phase cost read from the PricedProgram, and releases them — exactly
// the coordinated semantics of the bulk-synchronous fast path. In deterministic
// mode (monte_carlo == false) run_des and run_bsp produce identical
// timelines; the test suite enforces this engine equivalence. In
// Monte-Carlo mode ranks draw compute durations independently (per-rank
// noise), which the coarse path intentionally aggregates away.
//
// With EngineOptions::use_des_network set (and a fat-tree topology), the
// neighbor-exchange instructions are *executed* through the DES network
// substrate (net::DesNetwork) — switch components, per-port serialization,
// emergent contention — instead of the analytic collective model; the
// coordinator releases the ranks when the last halo message is delivered.
//
// With EngineOptions::inject_faults set, the injection engine (src/inject)
// drives in-simulation fault replay: faults are drawn lazily from per-node
// splittable streams (inject::FaultStream, or taken verbatim from
// EngineOptions::fault_trace), the coordinator self-schedules each fault's
// detection event, resolves recovery through inject::resolve_fault (shared
// with the coarse engine: downtime, deepest surviving FTI level, restart
// cost, faults that kill recovery), and broadcasts an epoch-tagged rollback
// that rewinds every rank's plan cursor to the restored checkpoint. Events
// from the discarded timeline are dropped by epoch checks. Injection
// composes with symmetry folding (rollback is coordinated, so struck ranks
// stay in their fold class) but not with use_des_network — in-flight flow
// deliveries cannot be rolled back, so that combination throws
// std::invalid_argument.

#include "core/engine_bsp.hpp"

namespace ftbesst::core {

/// Same errors as run_bsp; every rank and the coordinator read `program`.
[[nodiscard]] RunResult run_des(const PricedProgram& program,
                                const EngineOptions& options = {});
[[nodiscard]] RunResult run_des(const AppBEO& app, const ArchBEO& arch,
                                const EngineOptions& options = {});

}  // namespace ftbesst::core
