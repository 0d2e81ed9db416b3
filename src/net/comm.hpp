#pragma once
// Coarse-grained communication cost models (LogGP-flavoured).
//
// BE models do not simulate packets; a communication instruction asks the
// architecture model "how long does this transfer/collective take on this
// machine at this scale?". These formulas are the standard coarse models
// used in the DSE literature: alpha-beta point-to-point with per-hop
// latency, log-tree collectives, and a contention factor derived from the
// topology's bisection when many flows are active at once.

#include <cstdint>
#include <memory>

#include "net/topology.hpp"

namespace ftbesst::net {

/// Machine communication parameters (all seconds / bytes-per-second).
struct CommParams {
  double sw_latency = 100e-9;        ///< per-hop switch traversal
  double injection_latency = 600e-9; ///< NIC + software stack, per message
  double bandwidth = 12.5e9;         ///< per-link bandwidth (B/s)
  double congestion_gamma = 0.05;    ///< contention growth per excess flow
};

class CommModel {
 public:
  /// The topology must outlive the model.
  CommModel(const Topology& topo, CommParams params);

  [[nodiscard]] const CommParams& params() const noexcept { return params_; }
  [[nodiscard]] const Topology& topology() const noexcept { return *topo_; }

  /// Point-to-point message time between nodes `a` and `b`.
  [[nodiscard]] double ptp_time(NodeId a, NodeId b,
                                std::uint64_t bytes) const;

  /// Effective bandwidth derating when `active_flows` flows share the
  /// network relative to its bisection capacity. Returns a multiplier >= 1
  /// applied to serialization time.
  [[nodiscard]] double contention_factor(double active_flows) const;

  /// Binomial-tree barrier across `ranks` endpoints.
  [[nodiscard]] double barrier_time(std::int64_t ranks) const;

  /// Allreduce of `bytes` across `ranks` endpoints
  /// (recursive-doubling/Rabenseifner hybrid: latency term 2*log2(P)*alpha,
  /// bandwidth term 2*bytes/bw for large messages).
  [[nodiscard]] double allreduce_time(std::int64_t ranks,
                                      std::uint64_t bytes) const;

  /// Nearest-neighbour halo exchange: each rank exchanges `bytes` with
  /// `degree` neighbours; exchanges overlap pairwise but share injection
  /// bandwidth.
  [[nodiscard]] double neighbor_exchange_time(std::int64_t ranks, int degree,
                                              std::uint64_t bytes) const;

 private:
  [[nodiscard]] double alpha(int hops) const noexcept;

  const Topology* topo_;
  CommParams params_;
};

}  // namespace ftbesst::net
