#include "net/des_network.hpp"

#include <stdexcept>
#include <string>

namespace ftbesst::net {

namespace {
constexpr sim::PortId kInject = 1;  // NIC: local injection from send()

std::uint64_t flow_hash(NodeId src, NodeId dst) {
  auto x = static_cast<std::uint64_t>(src) * 0x9e3779b97f4a7c15ULL +
           static_cast<std::uint64_t>(dst);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

/// Shared serializer bookkeeping for store-and-forward output ports.
class PortSerializer {
 public:
  explicit PortSerializer(double bandwidth) : bandwidth_(bandwidth) {}

  /// Returns the extra delay (beyond link latency) for a message leaving
  /// now: queueing behind the port plus its own serialization.
  [[nodiscard]] sim::SimTime occupy(std::vector<sim::SimTime>& busy,
                                    std::size_t port, sim::SimTime now,
                                    std::uint64_t bytes) const {
    if (busy.size() <= port) busy.resize(port + 1, 0);
    const sim::SimTime start = std::max(now, busy[port]);
    const sim::SimTime ser =
        sim::from_seconds(static_cast<double>(bytes) / bandwidth_);
    busy[port] = start + ser;
    return busy[port] - now;
  }

 private:
  double bandwidth_;
};

class DesNetwork::Nic final : public sim::Component {
 public:
  Nic(NodeId node, PortSerializer serializer)
      : Component("nic" + std::to_string(node)),
        node_(node),
        serializer_(serializer) {}

  void handle_event(sim::PortId port,
                    std::unique_ptr<sim::Payload> payload) override {
    auto* msg = dynamic_cast<FlowMsg*>(payload.get());
    if (!msg) throw std::logic_error("NIC received a non-flow payload");
    if (port == kInject) {
      if (msg->dst == node_) {  // loopback, no wire involved
        deliver(*msg);
        return;
      }
      const sim::SimTime delay =
          serializer_.occupy(uplink_busy_, 0, now(), msg->bytes);
      bump("nic_msgs_injected");
      bump("nic_bytes_injected", msg->bytes);
      send(0, std::move(payload), delay);
      return;
    }
    deliver(*msg);
  }

  void set_handler(DeliveryHandler handler) { handler_ = std::move(handler); }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  void deliver(const FlowMsg& msg) {
    ++delivered_;
    bump("nic_msgs_delivered");
    bump("nic_bytes_delivered", msg.bytes);
    if (handler_) handler_(msg, now());
  }

  NodeId node_;
  PortSerializer serializer_;
  std::vector<sim::SimTime> uplink_busy_;
  DeliveryHandler handler_;
  std::uint64_t delivered_ = 0;
};

class DesNetwork::Switch final : public sim::Component {
 public:
  enum class Role { kLeaf, kSpine };

  Switch(std::string name, Role role, const TwoStageFatTree& topo,
         PortSerializer serializer, NodeId my_leaf = -1)
      : Component(std::move(name)),
        role_(role),
        topo_(&topo),
        serializer_(serializer),
        my_leaf_(my_leaf) {}

  void handle_event(sim::PortId,
                    std::unique_ptr<sim::Payload> payload) override {
    auto* msg = dynamic_cast<FlowMsg*>(payload.get());
    if (!msg) throw std::logic_error("switch received a non-flow payload");
    const sim::PortId out = route(*msg);
    const sim::SimTime delay =
        serializer_.occupy(busy_, out, now(), msg->bytes);
    bump("switch_msgs_forwarded");
    bump("switch_bytes_forwarded", msg->bytes);
    send(out, std::move(payload), delay);
  }

 private:
  [[nodiscard]] sim::PortId route(const FlowMsg& msg) const {
    const NodeId down = topo_->num_nodes() / topo_->num_leaves();
    if (role_ == Role::kSpine)
      return static_cast<sim::PortId>(topo_->leaf_of(msg.dst));
    // Leaf: deliver down if the destination lives here, else ECMP up.
    if (topo_->leaf_of(msg.dst) == my_leaf_)
      return static_cast<sim::PortId>(msg.dst % down);
    return static_cast<sim::PortId>(
        down + flow_hash(msg.src, msg.dst) %
                   static_cast<std::uint64_t>(topo_->num_spines()));
  }

  Role role_;
  const TwoStageFatTree* topo_;
  PortSerializer serializer_;
  NodeId my_leaf_;
  std::vector<sim::SimTime> busy_;
};

DesNetwork::DesNetwork(sim::Simulation& sim, const TwoStageFatTree& topo,
                       CommParams params)
    : sim_(&sim), topo_(&topo), params_(params) {
  if (params_.bandwidth <= 0)
    throw std::invalid_argument("bandwidth must be positive");
  const PortSerializer serializer(params_.bandwidth);
  const NodeId down = topo.num_nodes() / topo.num_leaves();

  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    nics_.push_back(sim.add_component<Nic>(n, serializer));
  for (NodeId l = 0; l < topo.num_leaves(); ++l)
    leaves_.push_back(sim.add_component<Switch>(
        "leaf" + std::to_string(l), Switch::Role::kLeaf, topo, serializer,
        l));
  for (NodeId s = 0; s < topo.num_spines(); ++s)
    spines_.push_back(sim.add_component<Switch>(
        "spine" + std::to_string(s), Switch::Role::kSpine, topo, serializer));

  const sim::SimTime inj = sim::from_seconds(params_.injection_latency);
  const sim::SimTime hop = sim::from_seconds(params_.sw_latency);
  // NIC <-> leaf: NIC port 0 to leaf port (local index).
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    sim.connect(nics_[static_cast<std::size_t>(n)]->id(), 0,
                leaves_[static_cast<std::size_t>(topo.leaf_of(n))]->id(),
                static_cast<sim::PortId>(n % down), std::max<sim::SimTime>(
                    inj, 1));
  // Leaf <-> spine: leaf port (down + s) to spine port (leaf index).
  for (NodeId l = 0; l < topo.num_leaves(); ++l)
    for (NodeId s = 0; s < topo.num_spines(); ++s)
      sim.connect(leaves_[static_cast<std::size_t>(l)]->id(),
                  static_cast<sim::PortId>(down + s),
                  spines_[static_cast<std::size_t>(s)]->id(),
                  static_cast<sim::PortId>(l), std::max<sim::SimTime>(hop, 1));
}

void DesNetwork::send(NodeId src, NodeId dst, std::uint64_t bytes,
                      sim::SimTime time, std::uint64_t tag) {
  if (src < 0 || src >= topo_->num_nodes() || dst < 0 ||
      dst >= topo_->num_nodes())
    throw std::out_of_range("DesNetwork::send: node out of range");
  auto msg = std::make_unique<FlowMsg>();
  msg->src = src;
  msg->dst = dst;
  msg->bytes = bytes;
  msg->tag = tag;
  sim_->schedule(sim::kNoComponent,
                 nics_[static_cast<std::size_t>(src)]->id(), kInject, time,
                 std::move(msg));
}

void DesNetwork::on_delivery(NodeId node, DeliveryHandler handler) {
  if (node < 0 || node >= topo_->num_nodes())
    throw std::out_of_range("DesNetwork::on_delivery: node out of range");
  nics_[static_cast<std::size_t>(node)]->set_handler(std::move(handler));
}

std::uint64_t DesNetwork::delivered() const noexcept {
  std::uint64_t total = 0;
  for (const Nic* nic : nics_) total += nic->delivered();
  return total;
}

}  // namespace ftbesst::net
