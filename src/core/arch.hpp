#pragma once
// ArchBEO: "describes the system hardware architecture that is simulated,
// defines system operations, and connects the performance models to the
// instructions listed in the AppBEO."
//
// The FT-aware extension (label "C" in the paper's Fig. 2) adds checkpoint
// cost models, restart cost models, and hardware fault parameters to the
// architecture description.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "ft/checkpoint_cost.hpp"
#include "ft/faults.hpp"
#include "ft/fti.hpp"
#include "inject/sdc.hpp"
#include "model/perf_model.hpp"
#include "net/comm.hpp"
#include "net/topology.hpp"

namespace ftbesst::core {

class ArchBEO {
 public:
  ArchBEO(std::string name, std::shared_ptr<const net::Topology> topology,
          net::CommParams comm_params, int ranks_per_node);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const net::Topology& topology() const noexcept {
    return *topology_;
  }
  [[nodiscard]] const net::CommModel& comm() const noexcept { return comm_; }
  [[nodiscard]] int ranks_per_node() const noexcept { return ranks_per_node_; }
  [[nodiscard]] std::int64_t max_ranks() const noexcept {
    return topology_->num_nodes() * ranks_per_node_;
  }

  /// Node hosting a rank under block assignment.
  [[nodiscard]] net::NodeId node_of_rank(std::int64_t rank) const {
    return rank / ranks_per_node_;
  }

  // --- performance-model bindings ---
  void bind_kernel(const std::string& kernel, model::PerfModelPtr model);
  [[nodiscard]] const model::PerfModel& kernel(const std::string& name) const;
  [[nodiscard]] bool has_kernel(const std::string& name) const noexcept;

  /// Restart cost model per checkpoint level (optional; engines fall back
  /// to zero restart cost when absent). Same parameter convention as the
  /// checkpoint kernels.
  void bind_restart(ft::Level level, model::PerfModelPtr model);
  [[nodiscard]] const model::PerfModel* restart(ft::Level level) const;

  // --- FT-aware hardware parameters ---
  void set_fti(ft::FtiConfig config) noexcept { fti_ = config; }
  [[nodiscard]] const ft::FtiConfig& fti() const noexcept { return fti_; }
  /// Ranks per node of the node universe that faults strike and recovery
  /// reasons about, shared by both engines: the FTI run configuration's
  /// node_size when it divides `ranks`, else the physical packing. The DES
  /// network packs ranks onto nodes the same way.
  [[nodiscard]] std::int64_t ranks_per_fault_node(
      std::int64_t ranks) const noexcept {
    return (fti_.node_size > 0 && ranks % fti_.node_size == 0)
               ? fti_.node_size
               : ranks_per_node_;
  }
  /// Nodes in that universe for `ranks` ranks (the last may be partial).
  [[nodiscard]] std::int64_t fault_nodes(std::int64_t ranks) const noexcept {
    const std::int64_t rpn = ranks_per_fault_node(ranks);
    return (ranks + rpn - 1) / rpn;
  }
  void set_fault_process(std::optional<ft::FaultProcess> fp) {
    faults_ = std::move(fp);
  }
  [[nodiscard]] const std::optional<ft::FaultProcess>& fault_process()
      const noexcept {
    return faults_;
  }
  /// Silent-data-corruption (soft error) process, injected alongside the
  /// fail-stop fault process by the DES injection engine. Optional: absent
  /// means no SDC faults.
  void set_sdc_process(std::optional<inject::SdcProcess> sp) {
    sdc_ = std::move(sp);
  }
  [[nodiscard]] const std::optional<inject::SdcProcess>& sdc_process()
      const noexcept {
    return sdc_;
  }

  /// FNV-1a digest of the architecture configuration a rank's timing is
  /// parameterized by: name, ranks-per-node, comm parameters, FTI layout,
  /// and the set of bound kernel/restart model names. The config axis of
  /// symmetry folding (sim::FoldSignature::config_digest). Model *names*
  /// are digested, not fitted coefficients: two ArchBEOs binding different
  /// models under the same name on the same machine description are not
  /// distinguished — callers folding across architectures must compare
  /// whole ArchBEO instances.
  [[nodiscard]] std::uint64_t fold_config_digest() const noexcept;

 private:
  std::string name_;
  std::shared_ptr<const net::Topology> topology_;
  net::CommModel comm_;
  int ranks_per_node_;
  std::map<std::string, model::PerfModelPtr> kernels_;
  std::map<ft::Level, model::PerfModelPtr> restart_;
  ft::FtiConfig fti_;
  std::optional<ft::FaultProcess> faults_;
  std::optional<inject::SdcProcess> sdc_;
};

}  // namespace ftbesst::core
