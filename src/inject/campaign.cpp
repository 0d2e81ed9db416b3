#include "inject/campaign.hpp"

#include <stdexcept>

#include "core/engine_des.hpp"
#include "obs/obs.hpp"

namespace ftbesst::inject {

CampaignResult run_campaign(const core::AppBEO& app, const core::ArchBEO& arch,
                            const CampaignOptions& options) {
  FTBESST_OBS_SPAN("inject.run_campaign");
  if (options.trials == 0)
    throw std::invalid_argument("need at least one campaign trial");
  static const obs::Counter campaigns = obs::counter("inject.campaigns");
  static const obs::Counter trial_count = obs::counter("inject.trials");

  core::EngineOptions engine = options.engine;
  engine.inject_faults = true;
  CampaignResult out{core::run_trials(
      app, arch, engine, options.trials, options.threads,
      options.use_des ? core::TrialEngine{core::run_des}
                      : core::TrialEngine{core::run_bsp})};
  campaigns.add();
  trial_count.add(options.trials);
  out.p10 = util::quantile(out.totals, 0.10);
  out.p50 = util::quantile(out.totals, 0.50);
  out.p90 = util::quantile(out.totals, 0.90);
  return out;
}

}  // namespace ftbesst::inject
