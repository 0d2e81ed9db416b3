#pragma once
// Monte-Carlo fault-injection campaign: a mode of the one trial driver,
// core::run_trials, with inject_faults forced on.
//
// A campaign replays the same application N times, by default through the
// DES, varying only the fault schedule seed per trial: model durations stay
// deterministic unless monte_carlo is opted into. This isolates the
// fault-induced makespan spread that the Young/Daly closed form prices in
// expectation. A coarse campaign with monte_carlo on is exactly
// run_ensemble with inject_faults on.

#include <cstddef>

#include "core/montecarlo.hpp"

namespace ftbesst::inject {

struct CampaignOptions {
  std::size_t trials = 32;
  /// 0 = shared task pool, 1 = inline on the calling thread (bit-identical
  /// either way).
  unsigned threads = 0;
  /// Engine options for every trial. inject_faults is forced on;
  /// monte_carlo is respected (off by default: fault-only variance).
  core::EngineOptions engine;
  /// Run trials through the DES injection engine (default) or the coarse
  /// bulk-synchronous engine.
  bool use_des = true;
};

/// The ensemble aggregate plus the makespan quantiles (s).
struct CampaignResult : core::EnsembleResult {
  double p10 = 0.0, p50 = 0.0, p90 = 0.0;
};

/// Run an injection campaign of `options.trials` trials. Throws
/// std::invalid_argument on zero trials (and propagates engine errors, e.g.
/// a missing fault process).
[[nodiscard]] CampaignResult run_campaign(const core::AppBEO& app,
                                          const core::ArchBEO& arch,
                                          const CampaignOptions& options);

}  // namespace ftbesst::inject
