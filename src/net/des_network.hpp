#pragma once
// Discrete-event interconnect: fat-tree switches as PDES components.
//
// The analytic CommModel answers "how long does a transfer take" in closed
// form; this substrate *executes* transfers through switch components with
// per-output-port serialization, so contention emerges from the event
// timeline instead of a formula — the fidelity rung between behavioural
// models and a flit-level simulator, and the hook for architectural DSE of
// the network itself (the paper's planned Quartz fat-tree modeling).
//
// Topology realized: two-stage fat-tree. Endpoint NICs attach to leaf
// switches; every leaf connects to every spine. Routing is deterministic
// ECMP (spine chosen by flow hash). Each switch output port is a
// store-and-forward serializer: a message occupies the port for
// bytes/bandwidth seconds; later messages queue behind it.
//
// Every component here is its own: ECMP spine choice and delivery handlers
// address concrete node ids, so the substrate never folds, and run_des
// keeps every rank a singleton when it executes exchanges through it.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/comm.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace ftbesst::net {

/// A transfer traversing the network.
struct FlowMsg final : sim::Payload {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint64_t bytes = 0;
  std::uint64_t tag = 0;
};

/// Delivery callback: invoked at the simulated arrival time on the
/// destination node.
using DeliveryHandler =
    std::function<void(const FlowMsg&, sim::SimTime arrival)>;

/// Builds and owns the switch/NIC components for a TwoStageFatTree inside a
/// Simulation. The Simulation and topology must outlive the network.
class DesNetwork {
 public:
  DesNetwork(sim::Simulation& sim, const TwoStageFatTree& topo,
             CommParams params);

  /// Inject a transfer at `time` (absolute). Delivery is reported through
  /// the handler registered for the destination node.
  void send(NodeId src, NodeId dst, std::uint64_t bytes, sim::SimTime time,
            std::uint64_t tag = 0);

  /// Register the delivery handler for a node (replaces any previous one).
  void on_delivery(NodeId node, DeliveryHandler handler);

  [[nodiscard]] const TwoStageFatTree& topology() const noexcept {
    return *topo_;
  }
  /// Total messages delivered so far.
  [[nodiscard]] std::uint64_t delivered() const noexcept;


 private:
  class Nic;
  class Switch;

  sim::Simulation* sim_;
  const TwoStageFatTree* topo_;
  CommParams params_;
  std::vector<Nic*> nics_;        // one per node
  std::vector<Switch*> leaves_;   // one per leaf
  std::vector<Switch*> spines_;   // one per spine
};

}  // namespace ftbesst::net
