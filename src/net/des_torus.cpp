#include "net/des_torus.hpp"

#include <stdexcept>
#include <string>

namespace ftbesst::net {

namespace {
constexpr sim::PortId kInject = 1u << 16;  // well above any neighbour port

/// FlowMsg extended with a hop counter for routing validation.
struct TorusMsg final : sim::Payload {
  FlowMsg flow;
  int hops = 0;
};
}  // namespace

class DesTorus::Router final : public sim::Component {
 public:
  Router(NodeId node, const Torus& topo, double bandwidth,
         TorusRouting routing)
      : Component("router" + std::to_string(node)),
        node_(node),
        topo_(&topo),
        bandwidth_(bandwidth),
        routing_(routing) {}

  void handle_event(sim::PortId port,
                    std::unique_ptr<sim::Payload> payload) override {
    auto* msg = dynamic_cast<TorusMsg*>(payload.get());
    if (!msg) throw std::logic_error("torus router got a foreign payload");
    if (port != kInject) ++msg->hops;
    if (msg->flow.dst == node_) {
      ++delivered_;
      hops_total_ += static_cast<std::uint64_t>(msg->hops);
      bump("router_msgs_delivered");
      if (handler_) handler_(msg->flow, now());
      return;
    }
    const sim::PortId out = next_port(msg->flow.dst);
    if (busy_.size() <= out) busy_.resize(out + 1, 0);
    const sim::SimTime start = std::max(now(), busy_[out]);
    const sim::SimTime ser = sim::from_seconds(
        static_cast<double>(msg->flow.bytes) / bandwidth_);
    busy_[out] = start + ser;
    bump("router_msgs_forwarded");
    bump("router_bytes_forwarded", msg->flow.bytes);
    send(out, std::move(payload), busy_[out] - now());
  }

  void set_handler(DeliveryHandler handler) { handler_ = std::move(handler); }
  [[nodiscard]] std::uint64_t delivered() const noexcept { return delivered_; }
  [[nodiscard]] std::uint64_t hops_total() const noexcept {
    return hops_total_;
  }

  /// Neighbour port ids: dimension d, minus = 2d, plus = 2d + 1.
  /// Dimension-order: first unresolved dimension, shorter ring direction.
  /// Minimal adaptive: among ALL productive (dimension, direction) choices
  /// on a shortest path, the output port whose serializer drains soonest.
  [[nodiscard]] sim::PortId next_port(NodeId dst) const {
    const auto mine = topo_->coords(node_);
    const auto theirs = topo_->coords(dst);
    sim::PortId best_port = 0;
    bool found = false;
    sim::SimTime best_backlog = 0;
    for (std::size_t d = 0; d < mine.size(); ++d) {
      if (mine[d] == theirs[d]) continue;
      const NodeId k = topo_->dims()[d];
      const NodeId forward = (theirs[d] - mine[d] + k) % k;  // hops going +
      const bool go_plus = forward <= k - forward;           // shorter way
      const auto port = static_cast<sim::PortId>(2 * d + (go_plus ? 1 : 0));
      if (routing_ == TorusRouting::kDimensionOrder) return port;
      const sim::SimTime backlog =
          port < busy_.size() ? std::max<sim::SimTime>(busy_[port], now()) -
                                    now()
                              : 0;
      if (!found || backlog < best_backlog) {
        found = true;
        best_port = port;
        best_backlog = backlog;
      }
    }
    if (!found) throw std::logic_error("routing called with dst == self");
    return best_port;
  }

 private:
  NodeId node_;
  const Torus* topo_;
  double bandwidth_;
  TorusRouting routing_;
  std::vector<sim::SimTime> busy_;
  DeliveryHandler handler_;
  std::uint64_t delivered_ = 0;
  std::uint64_t hops_total_ = 0;
};

DesTorus::DesTorus(sim::Simulation& sim, const Torus& topo, CommParams params,
                   TorusRouting routing)
    : sim_(&sim), topo_(&topo), params_(params), routing_(routing) {
  if (params_.bandwidth <= 0)
    throw std::invalid_argument("bandwidth must be positive");
  for (NodeId n = 0; n < topo.num_nodes(); ++n)
    routers_.push_back(
        sim.add_component<Router>(n, topo, params_.bandwidth, routing));

  const sim::SimTime hop =
      std::max<sim::SimTime>(sim::from_seconds(params_.sw_latency), 1);
  const auto& dims = topo.dims();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto coords = topo.coords(n);
    for (std::size_t d = 0; d < dims.size(); ++d) {
      if (dims[d] < 2) continue;  // degenerate ring: no links
      auto next = coords;
      next[d] = (coords[d] + 1) % dims[d];
      const NodeId peer = topo.node_at(next);
      // Wire n's plus port in dimension d to peer's minus port. Each
      // directed ring edge is created exactly once (by its minus-side
      // endpoint), and the link is bidirectional.
      sim.connect(routers_[static_cast<std::size_t>(n)]->id(),
                  static_cast<sim::PortId>(2 * d + 1),
                  routers_[static_cast<std::size_t>(peer)]->id(),
                  static_cast<sim::PortId>(2 * d), hop);
    }
  }
}

void DesTorus::send(NodeId src, NodeId dst, std::uint64_t bytes,
                    sim::SimTime time, std::uint64_t tag) {
  if (src < 0 || src >= topo_->num_nodes() || dst < 0 ||
      dst >= topo_->num_nodes())
    throw std::out_of_range("DesTorus::send: node out of range");
  auto msg = std::make_unique<TorusMsg>();
  msg->flow.src = src;
  msg->flow.dst = dst;
  msg->flow.bytes = bytes;
  msg->flow.tag = tag;
  // Injection latency models the NIC/software stack.
  const sim::SimTime when =
      time + sim::from_seconds(params_.injection_latency);
  sim_->schedule(sim::kNoComponent,
                 routers_[static_cast<std::size_t>(src)]->id(), kInject, when,
                 std::move(msg));
}

void DesTorus::on_delivery(NodeId node, DeliveryHandler handler) {
  if (node < 0 || node >= topo_->num_nodes())
    throw std::out_of_range("DesTorus::on_delivery: node out of range");
  routers_[static_cast<std::size_t>(node)]->set_handler(std::move(handler));
}

std::uint64_t DesTorus::delivered() const noexcept {
  std::uint64_t total = 0;
  for (const Router* r : routers_) total += r->delivered();
  return total;
}

std::uint64_t DesTorus::total_hops() const noexcept {
  std::uint64_t total = 0;
  for (const Router* r : routers_) total += r->hops_total();
  return total;
}

}  // namespace ftbesst::net
