#include "core/beo.hpp"

#include <stdexcept>

namespace ftbesst::core {

AppBEO::AppBEO(std::string name, std::int64_t ranks)
    : name_(std::move(name)), ranks_(ranks) {
  if (ranks_ < 1) throw std::invalid_argument("AppBEO needs >= 1 rank");
}

AppBEO& AppBEO::compute(std::string kernel, std::vector<double> params) {
  if (kernel.empty()) throw std::invalid_argument("kernel name required");
  Instr i;
  i.kind = InstrKind::kCompute;
  i.kernel = std::move(kernel);
  i.params = std::move(params);
  program_.push_back(std::move(i));
  return *this;
}

AppBEO& AppBEO::neighbor_exchange(int degree, std::uint64_t bytes) {
  if (degree < 0) throw std::invalid_argument("degree must be >= 0");
  Instr i;
  i.kind = InstrKind::kNeighborExchange;
  i.degree = degree;
  i.bytes = bytes;
  program_.push_back(std::move(i));
  return *this;
}

AppBEO& AppBEO::allreduce(std::uint64_t bytes) {
  Instr i;
  i.kind = InstrKind::kAllReduce;
  i.bytes = bytes;
  program_.push_back(std::move(i));
  return *this;
}

AppBEO& AppBEO::barrier() {
  Instr i;
  i.kind = InstrKind::kBarrier;
  program_.push_back(std::move(i));
  return *this;
}

AppBEO& AppBEO::checkpoint(ft::Level level, std::string kernel,
                           std::vector<double> params, bool async) {
  if (kernel.empty())
    throw std::invalid_argument("checkpoint model name required");
  Instr i;
  i.kind = InstrKind::kCheckpoint;
  i.level = level;
  i.kernel = std::move(kernel);
  i.params = std::move(params);
  i.async = async;
  program_.push_back(std::move(i));
  return *this;
}

AppBEO& AppBEO::end_timestep() {
  Instr i;
  i.kind = InstrKind::kTimestepEnd;
  program_.push_back(std::move(i));
  ++timesteps_;
  return *this;
}

}  // namespace ftbesst::core
