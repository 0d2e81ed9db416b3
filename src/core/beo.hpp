#pragma once
// Behavioral Emulation Objects (BEOs).
//
// An AppBEO is "a list of abstract instructions that represents the major
// functions and control flow of the application under study". Instructions
// carry only the parameters that affect performance. The FT-aware extension
// adds checkpoint instructions (with their FTI level) to the instruction
// set — the red boxes of the paper's Fig. 2/Fig. 3.
//
// Programs are SPMD: every rank executes the same instruction list; the
// engine resolves per-rank behaviour (neighbours, collectives, noise).

#include <cstdint>
#include <string>
#include <vector>

#include "ft/fti.hpp"

namespace ftbesst::core {

enum class InstrKind {
  kCompute,           ///< named kernel, duration from a bound PerfModel
  kNeighborExchange,  ///< halo exchange with `degree` neighbours
  kAllReduce,         ///< global reduction of `bytes`
  kBarrier,           ///< global synchronization
  kCheckpoint,        ///< coordinated FTI checkpoint at `level`
  kTimestepEnd        ///< marks a solver timestep boundary (trace point)
};

struct Instr {
  InstrKind kind = InstrKind::kCompute;
  std::string kernel;          ///< kCompute / kCheckpoint: bound model name
  std::vector<double> params;  ///< model arguments (e.g. {epr, ranks})
  std::uint64_t bytes = 0;     ///< comm volume for exchange/allreduce
  int degree = 0;              ///< kNeighborExchange fan-out
  ft::Level level = ft::Level::kL1;  ///< kCheckpoint level
  bool async = false;                ///< kCheckpoint: staged background flush
};

class AppBEO {
 public:
  AppBEO(std::string name, std::int64_t ranks);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::int64_t ranks() const noexcept { return ranks_; }
  [[nodiscard]] const std::vector<Instr>& program() const noexcept {
    return program_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return program_.size(); }
  /// Number of kTimestepEnd markers in the program.
  [[nodiscard]] int timesteps() const noexcept { return timesteps_; }
  /// Bytes of protected application state per rank (checkpoint volume).
  [[nodiscard]] std::uint64_t checkpoint_bytes_per_rank() const noexcept {
    return ckpt_bytes_;
  }
  void set_checkpoint_bytes_per_rank(std::uint64_t bytes) noexcept {
    ckpt_bytes_ = bytes;
  }

  // --- builder interface (fluent) ---
  AppBEO& compute(std::string kernel, std::vector<double> params);
  AppBEO& neighbor_exchange(int degree, std::uint64_t bytes);
  AppBEO& allreduce(std::uint64_t bytes);
  AppBEO& barrier();
  /// Coordinated checkpoint; `kernel` names the bound checkpoint cost model
  /// (e.g. "ckpt_l1") and `params` are its arguments. With `async`, only a
  /// staging fraction of the cost lands on the critical path (see
  /// ft::PlanEntry::async).
  AppBEO& checkpoint(ft::Level level, std::string kernel,
                     std::vector<double> params, bool async = false);
  AppBEO& end_timestep();

 private:
  std::string name_;
  std::int64_t ranks_;
  std::vector<Instr> program_;
  int timesteps_ = 0;
  std::uint64_t ckpt_bytes_ = 0;
};

}  // namespace ftbesst::core
