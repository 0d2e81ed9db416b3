#include "inject/sdc.hpp"

#include <stdexcept>

namespace ftbesst::inject {

SdcProcess::SdcProcess(double node_mtbe_seconds, double mean_detect_seconds)
    : mtbe_(node_mtbe_seconds), mean_detect_(mean_detect_seconds) {
  if (!(mtbe_ > 0.0))
    throw std::invalid_argument("SDC node MTBE must be > 0");
  if (mean_detect_ < 0.0)
    throw std::invalid_argument("SDC detection latency must be >= 0");
}

ft::FaultEvent SdcProcess::next_after(double from, util::Rng& rng) const {
  ft::FaultEvent ev;
  ev.time = from + rng.exponential(1.0 / mtbe_);
  ev.node = 0;
  ev.kind = ft::FailureKind::kSilentCorruption;
  ev.detect_after =
      mean_detect_ > 0.0 ? rng.exponential(1.0 / mean_detect_) : 0.0;
  return ev;
}

}  // namespace ftbesst::inject
