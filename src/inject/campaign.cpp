#include "inject/campaign.hpp"

#include <stdexcept>

#include "core/engine_des.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::inject {

CampaignResult run_campaign(const core::AppBEO& app, const core::ArchBEO& arch,
                            const CampaignOptions& options) {
  FTBESST_OBS_SPAN("inject.run_campaign");
  if (options.trials == 0)
    throw std::invalid_argument("need at least one campaign trial");
  static const obs::Counter campaigns = obs::counter("inject.campaigns");
  static const obs::Counter trial_count = obs::counter("inject.trials");
  campaigns.add();

  core::EngineOptions base = options.engine;
  base.inject_faults = true;

  // Per-trial seeds are derived up front (same discipline as run_ensemble)
  // so results are identical no matter how trials land on workers.
  util::Rng seeder(base.seed);
  std::vector<std::uint64_t> seeds(options.trials);
  for (std::size_t t = 0; t < options.trials; ++t)
    seeds[t] = seeder.split(t)();

  const core::PricedProgram priced(app, arch);
  std::vector<core::RunResult> runs(options.trials);
  auto run_trial = [&](std::size_t t) {
    core::EngineOptions per_trial = base;
    per_trial.seed = seeds[t];
    runs[t] = options.use_des ? core::run_des(priced, per_trial)
                              : core::run_bsp(priced, per_trial);
    trial_count.add();
  };
  if (options.threads == 1 || options.trials == 1) {
    for (std::size_t t = 0; t < options.trials; ++t) run_trial(t);
  } else {
    util::TaskGroup group;
    for (std::size_t t = 0; t < options.trials; ++t)
      group.run([&run_trial, t] { run_trial(t); });
    group.wait();
  }

  CampaignResult out;
  out.totals.reserve(options.trials);
  for (std::size_t t = 0; t < options.trials; ++t) {
    const core::RunResult& r = runs[t];
    out.totals.push_back(r.total_seconds);
    out.mean_faults += static_cast<double>(r.faults);
    out.mean_rollbacks += static_cast<double>(r.rollbacks);
    out.mean_full_restarts += static_cast<double>(r.full_restarts);
    out.mean_lost_work += r.lost_work_seconds;
    for (std::size_t l = 0; l < 4; ++l)
      out.mean_recoveries_by_level[l] +=
          static_cast<double>(r.recoveries_by_level[l]);
    if (!r.completed) ++out.incomplete_trials;
    out.fault_log.append_trial(r.fault_log, static_cast<std::int64_t>(t));
  }
  const auto n = static_cast<double>(options.trials);
  out.mean_faults /= n;
  out.mean_rollbacks /= n;
  out.mean_full_restarts /= n;
  out.mean_lost_work /= n;
  for (double& x : out.mean_recoveries_by_level) x /= n;
  out.total = util::summarize(out.totals);
  out.p10 = util::quantile(out.totals, 0.10);
  out.p50 = util::quantile(out.totals, 0.50);
  out.p90 = util::quantile(out.totals, 0.90);
  return out;
}

}  // namespace ftbesst::inject
