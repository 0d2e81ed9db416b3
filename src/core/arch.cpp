#include "core/arch.hpp"

#include <stdexcept>


namespace ftbesst::core {

namespace {
// The CommModel member is constructed from the topology in the initializer
// list, i.e. before the constructor body can reject a null pointer — so the
// null check has to happen here, ahead of the dereference.
const net::Topology& require_topology(
    const std::shared_ptr<const net::Topology>& t) {
  if (!t) throw std::invalid_argument("ArchBEO needs a topology");
  return *t;
}
}  // namespace

ArchBEO::ArchBEO(std::string name,
                 std::shared_ptr<const net::Topology> topology,
                 net::CommParams comm_params, int ranks_per_node)
    : name_(std::move(name)),
      topology_(std::move(topology)),
      comm_(require_topology(topology_), comm_params),
      ranks_per_node_(ranks_per_node) {
  if (ranks_per_node_ < 1)
    throw std::invalid_argument("ranks_per_node must be >= 1");
}

void ArchBEO::bind_kernel(const std::string& kernel,
                          model::PerfModelPtr model) {
  if (!model) throw std::invalid_argument("null model for " + kernel);
  kernels_[kernel] = std::move(model);
}

const model::PerfModel& ArchBEO::kernel(const std::string& name) const {
  const auto it = kernels_.find(name);
  if (it == kernels_.end())
    throw std::out_of_range("no model bound for kernel '" + name + "' on " +
                            name_);
  return *it->second;
}

bool ArchBEO::has_kernel(const std::string& name) const noexcept {
  return kernels_.count(name) > 0;
}

void ArchBEO::bind_restart(ft::Level level, model::PerfModelPtr model) {
  if (!model) throw std::invalid_argument("null restart model");
  restart_[level] = std::move(model);
}

const model::PerfModel* ArchBEO::restart(ft::Level level) const {
  const auto it = restart_.find(level);
  return it == restart_.end() ? nullptr : it->second.get();
}

}  // namespace ftbesst::core
