#pragma once
// Discrete-event k-ary n-dimensional torus (the Vulcan-style interconnect),
// companion to the fat-tree in des_network.hpp.
//
// One router component per node, each with 2n neighbour ports (+/- per
// dimension) plus a host port. Routing is deterministic dimension-order
// (resolve dimension 0 first, taking the shorter ring direction, then
// dimension 1, ...), the classic deadlock-free torus scheme. Every output
// port is a store-and-forward serializer, so link contention emerges from
// the event timeline exactly as in the fat-tree substrate. As there,
// routing and delivery handlers address concrete nodes, so the substrate
// never folds.

#include <cstdint>
#include <functional>
#include <vector>

#include "net/comm.hpp"
#include "net/des_network.hpp"  // FlowMsg, DeliveryHandler
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace ftbesst::net {

/// Torus routing policies.
enum class TorusRouting {
  kDimensionOrder,  ///< deterministic, deadlock-free (default)
  kMinimalAdaptive  ///< among productive dimensions, pick the output port
                    ///< with the least queued serialization backlog
};

class DesTorus {
 public:
  DesTorus(sim::Simulation& sim, const Torus& topo, CommParams params,
           TorusRouting routing = TorusRouting::kDimensionOrder);

  /// Inject a transfer at absolute `time`.
  void send(NodeId src, NodeId dst, std::uint64_t bytes, sim::SimTime time,
            std::uint64_t tag = 0);
  void on_delivery(NodeId node, DeliveryHandler handler);

  [[nodiscard]] const Torus& topology() const noexcept { return *topo_; }
  [[nodiscard]] std::uint64_t delivered() const noexcept;
  /// Total router-to-router hops taken by all delivered messages (for
  /// validating dimension-order routing against Topology::hops).
  [[nodiscard]] std::uint64_t total_hops() const noexcept;


 private:
  class Router;

  sim::Simulation* sim_;
  const Torus* topo_;
  CommParams params_;
  TorusRouting routing_;
  std::vector<Router*> routers_;  // one per node
};

}  // namespace ftbesst::net
