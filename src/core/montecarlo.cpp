#include "core/montecarlo.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::core {

namespace {

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename Range>
bool bits_equal(const Range& a, const Range& b) {
  return std::ranges::equal(a, b, [](double x, double y) {
    return bits_equal(x, y);
  });
}

}  // namespace

EnsembleResult run_trials(const AppBEO& app, const ArchBEO& arch,
                          const EngineOptions& options, std::size_t trials,
                          unsigned threads, TrialEngine engine) {
  if (trials == 0) throw std::invalid_argument("need at least one trial");

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
    runs[t] = engine(priced, per_trial);
  };
  if (threads == 1 || trials == 1) {
    for (std::size_t t = 0; t < trials; ++t) run_trial(t);
  } else {
    // One shared-pool task per trial, claimed dynamically: slow (faulty)
    // trials never idle a worker, and inside a run_dse point task the
    // trials interleave with other points instead of oversubscribing.
    util::TaskGroup group;
    for (std::size_t t = 0; t < trials; ++t)
      group.run([&run_trial, t] { run_trial(t); });
    group.wait();
  }

  // Each field is its own sum in trial order, so the reduction (and the
  // golden corpus bytes) does not depend on how the trials ran.
  EnsembleResult out;
  out.totals.reserve(trials);
  out.mean_timestep_end.assign(static_cast<std::size_t>(app.timesteps()),
                               0.0);
  for (std::size_t t = 0; t < trials; ++t) {
    const RunResult& r = runs[t];
    out.totals.push_back(r.total_seconds);
    out.mean_faults += static_cast<double>(r.faults);
    out.mean_rollbacks += static_cast<double>(r.rollbacks);
    out.mean_full_restarts += static_cast<double>(r.full_restarts);
    if (!r.completed) ++out.incomplete_trials;
    for (std::size_t i = 0; i < out.mean_timestep_end.size() &&
                            i < r.timestep_end_times.size();
         ++i)
      out.mean_timestep_end[i] += r.timestep_end_times[i];
    out.mean_lost_work += r.lost_work_seconds;
    for (std::size_t l = 0; l < 4; ++l)
      out.mean_recoveries_by_level[l] +=
          static_cast<double>(r.recoveries_by_level[l]);
    out.fault_log.append_trial(r.fault_log, static_cast<std::int64_t>(t));
  }
  out.fault_log.set_trials(trials);
  const auto n = static_cast<double>(trials);
  for (double& x : out.mean_timestep_end) x /= n;
  out.mean_faults /= n;
  out.mean_rollbacks /= n;
  out.mean_full_restarts /= n;
  out.mean_lost_work /= n;
  for (double& x : out.mean_recoveries_by_level) x /= n;
  out.total = util::summarize(out.totals);
  return out;
}

EnsembleResult run_ensemble(const AppBEO& app, const ArchBEO& arch,
                            EngineOptions options, std::size_t trials,
                            unsigned threads) {
  FTBESST_OBS_SPAN("core.run_ensemble");
  options.monte_carlo = true;
  static const obs::Counter ensembles = obs::counter("mc.ensembles");
  static const obs::Counter trial_count = obs::counter("mc.trials");
  EnsembleResult out =
      run_trials(app, arch, options, trials, threads, run_bsp);
  ensembles.add();
  // Counted once per ensemble: a priced trial is a few microseconds, so a
  // per-trial counter update would weigh on the obs-enabled cost.
  trial_count.add(trials);
  return out;
}

std::string bit_difference(const RunResult& a, const RunResult& b) {
  if (!bits_equal(a.total_seconds, b.total_seconds)) return "total_seconds";
  if (!bits_equal(a.timestep_end_times, b.timestep_end_times))
    return "timestep_end_times";
  if (a.checkpoint_timesteps != b.checkpoint_timesteps)
    return "checkpoint_timesteps";
  if (a.instructions_executed != b.instructions_executed)
    return "instructions_executed";
  if (a.completed != b.completed) return "completed";
  if (a.faults != b.faults) return "faults";
  if (a.rollbacks != b.rollbacks) return "rollbacks";
  if (a.full_restarts != b.full_restarts) return "full_restarts";
  if (!bits_equal(a.lost_work_seconds, b.lost_work_seconds))
    return "lost_work_seconds";
  if (a.recoveries_by_level != b.recoveries_by_level)
    return "recoveries_by_level";
  if (a.fault_log.to_text() != b.fault_log.to_text()) return "fault_log";
  return "";
}

std::string bit_difference(const EnsembleResult& a, const EnsembleResult& b) {
  if (!bits_equal(a.totals, b.totals)) return "totals";
  if (a.total.count != b.total.count ||
      !bits_equal(a.total.mean, b.total.mean) ||
      !bits_equal(a.total.stddev, b.total.stddev) ||
      !bits_equal(a.total.min, b.total.min) ||
      !bits_equal(a.total.max, b.total.max) ||
      !bits_equal(a.total.median, b.total.median))
    return "total";
  if (!bits_equal(a.mean_timestep_end, b.mean_timestep_end))
    return "mean_timestep_end";
  if (!bits_equal(a.mean_faults, b.mean_faults)) return "mean_faults";
  if (!bits_equal(a.mean_rollbacks, b.mean_rollbacks)) return "mean_rollbacks";
  if (!bits_equal(a.mean_full_restarts, b.mean_full_restarts))
    return "mean_full_restarts";
  if (a.incomplete_trials != b.incomplete_trials) return "incomplete_trials";
  if (!bits_equal(a.mean_lost_work, b.mean_lost_work)) return "mean_lost_work";
  if (!bits_equal(a.mean_recoveries_by_level, b.mean_recoveries_by_level))
    return "mean_recoveries_by_level";
  if (a.fault_log.to_text() != b.fault_log.to_text()) return "fault_log";
  return "";
}

}  // namespace ftbesst::core
