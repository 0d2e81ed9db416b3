#include "core/montecarlo.hpp"

#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::core {

EnsembleResult run_ensemble(const AppBEO& app, const ArchBEO& arch,
                            EngineOptions options, std::size_t trials,
                            unsigned threads) {
  FTBESST_OBS_SPAN("core.run_ensemble");
  if (trials == 0) throw std::invalid_argument("need at least one trial");
  options.monte_carlo = true;
  static const obs::Counter ensembles = obs::counter("mc.ensembles");
  static const obs::Counter trial_count = obs::counter("mc.trials");
  ensembles.add();

  // Per-trial seeds are derived up front so the result is identical no
  // matter how trials are scheduled across workers.
  util::Rng seeder(options.seed);
  std::vector<std::uint64_t> seeds(trials);
  for (std::size_t t = 0; t < trials; ++t) seeds[t] = seeder.split(t)();

  // Every trial draws around the same medians: price the program once.
  const PricedProgram priced(app, arch);
  std::vector<RunResult> runs(trials);
  auto run_trial = [&](std::size_t t) {
    EngineOptions per_trial = options;
    per_trial.seed = seeds[t];
    runs[t] = run_bsp(priced, per_trial);
  };
  if (threads == 1 || trials == 1) {
    for (std::size_t t = 0; t < trials; ++t) run_trial(t);
  } else {
    // One shared-pool task per trial. The pool claims tasks dynamically, so
    // slow trials (injected faults, rollbacks) never idle a worker the way
    // the old static `t += threads` striding did — and when this ensemble
    // itself runs inside a run_dse point task, trials simply interleave
    // with other points on the same workers instead of spawning a nested
    // thread set that oversubscribes the machine.
    util::TaskGroup group;
    for (std::size_t t = 0; t < trials; ++t)
      group.run([&run_trial, t] { run_trial(t); });
    group.wait();
  }
  // Counted once per ensemble: a priced trial is a few microseconds, so a
  // per-trial counter update would weigh on the obs-enabled cost.
  trial_count.add(trials);

  EnsembleResult out;
  out.totals.reserve(trials);
  out.mean_timestep_end.assign(static_cast<std::size_t>(app.timesteps()),
                               0.0);
  for (const RunResult& r : runs) {
    out.totals.push_back(r.total_seconds);
    out.mean_faults += static_cast<double>(r.faults);
    out.mean_rollbacks += static_cast<double>(r.rollbacks);
    out.mean_full_restarts += static_cast<double>(r.full_restarts);
    if (!r.completed) ++out.incomplete_trials;
    for (std::size_t i = 0; i < out.mean_timestep_end.size() &&
                            i < r.timestep_end_times.size();
         ++i)
      out.mean_timestep_end[i] += r.timestep_end_times[i];
  }
  const auto n = static_cast<double>(trials);
  for (double& x : out.mean_timestep_end) x /= n;
  out.mean_faults /= n;
  out.mean_rollbacks /= n;
  out.mean_full_restarts /= n;
  out.total = util::summarize(out.totals);
  // Injection statistics, accumulated separately (after the original
  // aggregate so the floating-point reduction order of the pre-existing
  // fields — and therefore the golden corpus bytes — is untouched).
  for (std::size_t t = 0; t < trials; ++t) {
    const RunResult& r = runs[t];
    out.mean_lost_work += r.lost_work_seconds;
    for (std::size_t l = 0; l < 4; ++l)
      out.mean_recoveries_by_level[l] +=
          static_cast<double>(r.recoveries_by_level[l]);
    out.fault_log.append_trial(r.fault_log,
                               static_cast<std::int64_t>(t));
  }
  out.mean_lost_work /= n;
  for (double& x : out.mean_recoveries_by_level) x /= n;
  return out;
}

}  // namespace ftbesst::core
