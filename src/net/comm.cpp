#include "net/comm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftbesst::net {

namespace {
double log2_ceil(std::int64_t n) {
  return n <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(n)));
}
}  // namespace

CommModel::CommModel(const Topology& topo, CommParams params)
    : topo_(&topo), params_(params) {
  if (params_.bandwidth <= 0.0)
    throw std::invalid_argument("bandwidth must be positive");
  if (params_.sw_latency < 0.0 || params_.injection_latency < 0.0 ||
      params_.congestion_gamma < 0.0)
    throw std::invalid_argument("latencies/gamma must be non-negative");
}

double CommModel::alpha(int hops) const noexcept {
  return params_.injection_latency + params_.sw_latency * hops;
}

double CommModel::ptp_time(NodeId a, NodeId b, std::uint64_t bytes) const {
  if (a == b) return 0.0;  // intra-node copies are part of the compute model
  const int h = topo_->hops(a, b);
  return alpha(h) + static_cast<double>(bytes) / params_.bandwidth;
}

double CommModel::contention_factor(double active_flows) const {
  const double capacity = std::max(1.0, topo_->bisection_links());
  const double excess = active_flows / capacity - 1.0;
  if (excess <= 0.0) return 1.0;
  return 1.0 + params_.congestion_gamma * excess * capacity /
                   std::max(1.0, capacity);
}

double CommModel::barrier_time(std::int64_t ranks) const {
  if (ranks <= 1) return 0.0;
  return log2_ceil(ranks) * alpha(topo_->diameter());
}

double CommModel::allreduce_time(std::int64_t ranks,
                                 std::uint64_t bytes) const {
  if (ranks <= 1) return 0.0;
  const double lat = 2.0 * log2_ceil(ranks) * alpha(topo_->diameter());
  const double bw = 2.0 * static_cast<double>(bytes) / params_.bandwidth;
  return lat + bw;
}

double CommModel::neighbor_exchange_time(std::int64_t ranks, int degree,
                                         std::uint64_t bytes) const {
  if (ranks <= 1 || degree <= 0) return 0.0;
  // Each rank sends `degree` messages; injection serializes them, and the
  // network applies contention if all ranks exchange at once.
  const double per_msg =
      alpha(topo_->diameter() / 2 + 1) +
      static_cast<double>(bytes) / params_.bandwidth;
  const double flows = static_cast<double>(ranks) * degree / 2.0;
  return per_msg * degree * contention_factor(flows);
}

}  // namespace ftbesst::net
