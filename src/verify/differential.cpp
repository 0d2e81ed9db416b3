#include "verify/differential.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>

#include "core/engine_des.hpp"
#include "core/montecarlo.hpp"
#include "ft/young_daly.hpp"
#include "inject/campaign.hpp"
#include "util/number.hpp"
#include "verify/reference.hpp"

namespace ftbesst::verify {

namespace {

bool rel_close(double a, double b, double rel, double abs_slack = 0.0) {
  if (std::isnan(a) || std::isnan(b)) return false;
  return std::abs(a - b) <=
         rel * (1.0 + std::abs(a) + std::abs(b)) + abs_slack;
}

std::string pair_detail(const std::string& what, double a, const char* a_name,
                        double b, const char* b_name) {
  std::string d(what);
  d += ": ";
  d += a_name;
  d += '=';
  util::append_double(d, a);
  d += ' ';
  d += b_name;
  d += '=';
  util::append_double(d, b);
  return d;
}

/// A copy of the scenario with every stochastic ingredient stripped — the
/// configuration the deterministic engines and the analytic twin price.
Scenario deterministic_copy(const Scenario& s) {
  Scenario clean = s;
  clean.inject_faults = false;
  clean.monte_carlo = false;
  clean.noise_sigma = 0.0;
  return clean;
}

// --- leg 1: analytic twin vs run_bsp (clean, deterministic) ---
void check_analytic(const Scenario& s, const DiffTolerances& tol,
                    const BuildOverrides& overrides, DiffReport& report) {
  const Scenario clean = deterministic_copy(s);
  BuiltScenario built = build(clean, overrides);
  const core::RunResult bsp = core::run_bsp(built.app, built.arch,
                                            built.options);
  const double twin = reference_clean_total_seconds(clean);
  ++report.analytic_checks;
  if (!bsp.completed) {
    add_failure(report, "analytic_twin",
                "clean run hit the simulation horizon", clean);
    return;
  }
  if (!rel_close(bsp.total_seconds, twin, tol.analytic_rel))
    add_failure(report, "analytic_twin",
                pair_detail("clean total disagrees", bsp.total_seconds,
                            "bsp", twin, "analytic"),
                clean);
}

// --- leg 2: run_des vs run_bsp (clean, deterministic, no async) ---
void check_engines(const Scenario& s, const DiffTolerances& tol,
                   const BuildOverrides& overrides, DiffReport& report) {
  const Scenario clean = deterministic_copy(s);
  if (clean.has_async()) return;  // DES charges full async checkpoint cost
  BuiltScenario built = build(clean, overrides);
  const core::RunResult bsp = core::run_bsp(built.app, built.arch,
                                            built.options);
  const core::RunResult des = core::run_des(built.app, built.arch,
                                            built.options);
  ++report.engine_checks;
  // The PDES kernel rounds every duration to integer-nanosecond ticks, so
  // allow one tick of drift per executed instruction on top of the
  // relative tolerance.
  const double tick_slack =
      tol.des_tick_seconds *
      static_cast<double>(bsp.instructions_executed);
  if (!rel_close(des.total_seconds, bsp.total_seconds, tol.engine_rel,
                 tick_slack)) {
    add_failure(report, "des_vs_bsp",
                pair_detail("total disagrees", des.total_seconds, "des",
                            bsp.total_seconds, "bsp"),
                clean);
    return;
  }
  if (des.timestep_end_times.size() != bsp.timestep_end_times.size()) {
    add_failure(report, "des_vs_bsp", "timestep trace lengths differ",
                clean);
    return;
  }
  for (std::size_t i = 0; i < des.timestep_end_times.size(); ++i)
    if (!rel_close(des.timestep_end_times[i], bsp.timestep_end_times[i],
                   tol.engine_rel, tick_slack)) {
      add_failure(report, "des_vs_bsp",
                  pair_detail(
                      ("timestep " + std::to_string(i + 1) + " disagrees")
                          .c_str(),
                      des.timestep_end_times[i], "des",
                      bsp.timestep_end_times[i], "bsp"),
                  clean);
      return;
    }
}

// --- leg 2b: run_des folded vs unfolded, bit-identical ---
// Symmetry folding (core::run_des) collapses the ranks of a run to one
// representative carrying multiplicity N and scales counters by it at
// aggregation. It is a pure execution-cost optimization: every prediction
// field must match the unfolded run bit for bit, and the folded run must
// touch no more PDES events than the unfolded one. Skipped above
// kMaxUnfoldedRanks, where des-vs-bsp still prices the folded run.
void check_fold(const Scenario& s, const BuildOverrides& overrides,
                DiffReport& report) {
  if (s.ranks > kMaxUnfoldedRanks) return;
  const Scenario clean = deterministic_copy(s);
  BuiltScenario built = build(clean, overrides);
  built.options.fold_symmetry = true;
  const core::RunResult folded = core::run_des(built.app, built.arch,
                                               built.options);
  built.options.fold_symmetry = false;
  const core::RunResult unfolded = core::run_des(built.app, built.arch,
                                                 built.options);
  ++report.fold_checks;
  if (const std::string field = core::bit_difference(folded, unfolded);
      !field.empty()) {
    add_failure(report, "fold_vs_unfold",
                pair_detail("not bit-identical in " + field,
                            folded.total_seconds, "folded",
                            unfolded.total_seconds, "unfolded"),
                clean);
    return;
  }
  if (folded.sim_events > unfolded.sim_events)
    add_failure(report, "fold_vs_unfold",
                pair_detail("folded run processed MORE events",
                            static_cast<double>(folded.sim_events), "folded",
                            static_cast<double>(unfolded.sim_events),
                            "unfolded"),
                clean);
}

// --- leg 3: run_ensemble threads 1 vs N, bit-identical ---
void check_threads(const Scenario& s, const BuildOverrides& overrides,
                   DiffReport& report) {
  BuiltScenario built = build(s, overrides);
  const std::size_t trials = static_cast<std::size_t>(s.trials);
  const core::EnsembleResult one =
      core::run_ensemble(built.app, built.arch, built.options, trials, 1);
  const core::EnsembleResult many =
      core::run_ensemble(built.app, built.arch, built.options, trials, 4);
  ++report.thread_checks;
  if (const std::string field = core::bit_difference(one, many);
      !field.empty())
    add_failure(report, "thread_bits",
                pair_detail("ensemble not bit-identical across threads in " +
                                field,
                            one.total.mean, "threads1_mean",
                            many.total.mean, "threadsN_mean"),
                s);
}

// --- leg 4: Young/Daly expected runtime vs ensemble mean ---
// Eligibility + conditioning for the statistical Young/Daly legs (the
// ensemble leg below and the injection-campaign leg): the first-order waste
// model applies only with exponential faults, a single synchronous
// checkpoint level every fault is recoverable from, deterministic
// durations, and a well-conditioned regime (interval and recovery small
// against the system MTBF). Returns the closed-form expected runtime, or
// nullopt when the scenario is ineligible.
std::optional<double> young_daly_expected(const Scenario& s) {
  if (!s.inject_faults || s.weibull_shape != 1.0 || s.monte_carlo ||
      s.noise_sigma != 0.0 || s.plan.size() != 1 || s.plan[0].async)
    return std::nullopt;
  const ft::PlanEntry entry = s.plan[0];
  const bool per_fault_recoverable =
      s.loss_fraction == 0.0 || entry.level >= ft::Level::kL2;
  if (!per_fault_recoverable || s.node_mtbf_seconds <= 0.0)
    return std::nullopt;

  const std::int64_t nodes = s.ranks / s.fti.node_size;
  const double system_mtbf =
      s.node_mtbf_seconds / static_cast<double>(nodes);
  const double step = reference_timestep_seconds(s);
  const double work = step * s.timesteps;
  const double interval = step * entry.period;
  const double ckpt = reference_checkpoint_cost(
      s.storage, s.fti, entry.level, s.ckpt_bytes_per_rank, s.ranks);
  const double restart =
      reference_restart_cost(s.storage, s.fti, entry.level,
                             s.ckpt_bytes_per_rank, s.ranks) +
      s.downtime_seconds;
  // Conditioning guards: outside this regime the first-order model and the
  // simulator legitimately diverge (thrash, censoring, high-order terms).
  if (interval > s.timesteps * step) return std::nullopt;  // < 1 checkpoint
  if (interval / 2.0 + restart > system_mtbf / 4.0) return std::nullopt;
  if (ckpt > system_mtbf / 10.0) return std::nullopt;
  const double expected =
      ft::expected_runtime_cr(work, interval, ckpt, restart, system_mtbf);
  if (!std::isfinite(expected)) return std::nullopt;
  return expected;
}

void check_young_daly(const Scenario& s, const DiffTolerances& tol,
                      const BuildOverrides& overrides, DiffReport& report) {
  const std::optional<double> closed_form = young_daly_expected(s);
  if (!closed_form) return;
  const double expected = *closed_form;

  Scenario mc = s;
  mc.trials = tol.young_daly_trials;
  BuiltScenario built = build(mc, overrides);
  const core::EnsembleResult ens = core::run_ensemble(
      built.app, built.arch, built.options,
      static_cast<std::size_t>(mc.trials), 0);
  if (ens.incomplete_trials > 0) return;  // censored mean is meaningless
  ++report.young_daly_checks;
  const double mean = ens.total.mean;
  if (mean < expected / tol.young_daly_band ||
      mean > expected * tol.young_daly_band)
    add_failure(report, "young_daly",
                pair_detail("ensemble mean outside the Young/Daly band",
                            mean, "simulated", expected, "closed_form"),
                s);
}

// --- leg 4b: in-simulation injection (src/inject), DES engine ---
// Three sub-checks on every fault-injecting scenario, all through the DES
// injection path:
//  (a) injected fold-vs-unfold, bit-identical in every result field and
//      fault-log byte — rollback is coordinated (every rank rewinds to the
//      same checkpoint at the same instant), so struck ranks stay folded
//      and folding must stay a pure execution-cost optimization even
//      mid-recovery (the rule documented at run_des's fold gate); skipped
//      above kMaxUnfoldedRanks;
//  (b) injection campaign threads 1 vs 4, bit-identical — per-trial fault
//      seeds are derived before any trial runs;
//  (c) on Young/Daly-eligible scenarios, the campaign mean makespan must
//      sit in the same multiplicative band as the ensemble leg (same
//      eligibility and conditioning guards via young_daly_expected).
void check_inject(const Scenario& s, const DiffTolerances& tol,
                  const BuildOverrides& overrides, DiffReport& report) {
  if (!s.inject_faults || s.node_mtbf_seconds <= 0.0) return;
  // Injection through the DES needs deterministic durations for the
  // bitwise sub-checks; the campaign already isolates fault-seed variance.
  Scenario det = s;
  det.monte_carlo = false;
  det.noise_sigma = 0.0;
  ++report.inject_checks;

  if (det.ranks <= kMaxUnfoldedRanks) {  // (a) injected fold vs unfold
    BuiltScenario built = build(det, overrides);
    built.options.fold_symmetry = true;
    const core::RunResult folded =
        core::run_des(built.app, built.arch, built.options);
    built.options.fold_symmetry = false;
    const core::RunResult unfolded =
        core::run_des(built.app, built.arch, built.options);
    if (const std::string field = core::bit_difference(folded, unfolded);
        !field.empty()) {
      add_failure(report, "inject_fold",
                  pair_detail("injected fold-vs-unfold not bit-identical in " +
                                  field,
                              folded.total_seconds, "folded",
                              unfolded.total_seconds, "unfolded"),
                  det);
      return;
    }
  }

  {  // (b) campaign threads 1 vs 4
    BuiltScenario built = build(det, overrides);
    inject::CampaignOptions copt;
    copt.engine = built.options;
    copt.trials = static_cast<std::size_t>(std::clamp(s.trials, 1, 4));
    copt.threads = 1;
    const inject::CampaignResult one =
        inject::run_campaign(built.app, built.arch, copt);
    copt.threads = 4;
    const inject::CampaignResult many =
        inject::run_campaign(built.app, built.arch, copt);
    if (const std::string field = core::bit_difference(one, many);
        !field.empty()) {
      add_failure(report, "inject_threads",
                  pair_detail("injection campaign not bit-identical across "
                              "threads in " + field,
                              one.total.mean, "threads1_mean",
                              many.total.mean, "threads4_mean"),
                  det);
      return;
    }
  }

  // (c) Young/Daly band through the injection campaign
  const std::optional<double> closed_form = young_daly_expected(det);
  if (!closed_form) return;
  BuiltScenario built = build(det, overrides);
  inject::CampaignOptions copt;
  copt.engine = built.options;
  copt.trials = static_cast<std::size_t>(tol.young_daly_trials);
  const inject::CampaignResult res =
      inject::run_campaign(built.app, built.arch, copt);
  if (res.incomplete_trials > 0) return;  // censored mean is meaningless
  ++report.inject_young_daly_checks;
  if (res.total.mean < *closed_form / tol.young_daly_band ||
      res.total.mean > *closed_form * tol.young_daly_band)
    add_failure(report, "inject_young_daly",
                pair_detail("injection campaign mean outside the Young/Daly "
                            "band",
                            res.total.mean, "simulated", *closed_form,
                            "closed_form"),
                det);
}

}  // namespace

void add_failure(DiffReport& report, std::string check, std::string detail,
                 const Scenario& s) {
  DiffFailure f;
  f.check = std::move(check);
  f.detail = std::move(detail);
  f.scenario = s;
  report.failures.push_back(std::move(f));
}

void DiffReport::merge(const DiffReport& other) {
  scenarios += other.scenarios;
  golden_checks += other.golden_checks;
  analytic_checks += other.analytic_checks;
  engine_checks += other.engine_checks;
  fold_checks += other.fold_checks;
  thread_checks += other.thread_checks;
  young_daly_checks += other.young_daly_checks;
  inject_checks += other.inject_checks;
  inject_young_daly_checks += other.inject_young_daly_checks;
  search_checks += other.search_checks;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
}

std::string DiffReport::summary(std::string_view pass) const {
  std::string out(pass);
  out += ": " + std::to_string(scenarios) + " scenarios, ";
  if (golden_checks > 0)
    out += std::to_string(golden_checks) + " golden, ";
  out += std::to_string(analytic_checks) + " analytic, ";
  out += std::to_string(engine_checks) + " des-vs-bsp, ";
  out += std::to_string(fold_checks) + " fold-vs-unfold, ";
  out += std::to_string(thread_checks) + " thread-bit, ";
  out += std::to_string(young_daly_checks) + " young-daly, ";
  out += std::to_string(inject_checks) + " inject (" +
         std::to_string(inject_young_daly_checks) + " young-daly), ";
  out += std::to_string(search_checks) + " search checks, ";
  out += std::to_string(failures.size()) + " failure(s)\n";
  for (const DiffFailure& f : failures) {
    out += "FAIL [" + f.check + "] ";
    out += f.entry.empty() ? "seed=" + std::to_string(f.generator_seed) +
                                 " index=" + std::to_string(f.scenario_index)
                           : "entry=" + f.entry;
    out += ": " + f.detail + "\n--- shrunk scenario ---\n" +
           f.scenario.to_text() + "-----------------------\n";
  }
  return out;
}

DiffReport check_scenario(const Scenario& s, const DiffTolerances& tol,
                          const BuildOverrides& overrides) {
  DiffReport report;
  report.scenarios = 1;
  try {
    check_analytic(s, tol, overrides, report);
    check_engines(s, tol, overrides, report);
    check_fold(s, overrides, report);
    check_threads(s, overrides, report);
    check_young_daly(s, tol, overrides, report);
    check_inject(s, tol, overrides, report);
  } catch (const std::exception& e) {
    add_failure(report, "exception", e.what(), s);
  }
  return report;
}

Scenario shrink(const Scenario& start,
                const std::function<bool(const Scenario&)>& still_fails,
                int budget) {
  Scenario current = start;
  int evals = 0;
  auto try_candidate = [&](const Scenario& candidate) {
    if (evals >= budget) return false;
    ++evals;
    if (!still_fails(candidate)) return false;
    current = candidate;
    return true;
  };

  bool progressed = true;
  while (progressed && evals < budget) {
    progressed = false;

    while (current.timesteps > 1) {
      Scenario c = current;
      c.timesteps = std::max(1, c.timesteps / 2);
      if (!try_candidate(c)) break;
      progressed = true;
    }
    while (current.trials > 1) {
      Scenario c = current;
      c.trials = std::max(1, c.trials / 2);
      if (!try_candidate(c)) break;
      progressed = true;
    }
    for (std::size_t i = current.plan.size(); i-- > 0;) {
      Scenario c = current;
      c.plan.erase(c.plan.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_candidate(c)) progressed = true;
    }
    if (current.exchange_degree != 0) {
      Scenario c = current;
      c.exchange_degree = 0;
      c.exchange_bytes = 0;
      if (try_candidate(c)) progressed = true;
    }
    if (current.allreduce_bytes != 0) {
      Scenario c = current;
      c.allreduce_bytes = 0;
      if (try_candidate(c)) progressed = true;
    }
    if (current.barrier) {
      Scenario c = current;
      c.barrier = false;
      if (try_candidate(c)) progressed = true;
    }
    if (current.noise_sigma != 0.0 || current.monte_carlo) {
      Scenario c = current;
      c.noise_sigma = 0.0;
      c.monte_carlo = false;
      if (try_candidate(c)) progressed = true;
    }
    if (current.inject_faults) {
      Scenario c = current;
      c.inject_faults = false;
      if (try_candidate(c)) progressed = true;
    }
    if (current.downtime_seconds != 0.0) {
      Scenario c = current;
      c.downtime_seconds = 0.0;
      if (try_candidate(c)) progressed = true;
    }
    {
      const std::int64_t unit =
          static_cast<std::int64_t>(current.fti.group_size) *
          current.fti.node_size;
      if (current.ranks > unit) {
        Scenario c = current;
        c.ranks = unit;
        if (try_candidate(c)) progressed = true;
      }
    }
    if (current.ckpt_bytes_per_rank > 1024) {
      Scenario c = current;
      c.ckpt_bytes_per_rank = std::max<std::uint64_t>(
          1024, c.ckpt_bytes_per_rank / 16);
      if (try_candidate(c)) progressed = true;
    }
  }
  return current;
}

DiffReport run_differential(int scenarios, std::uint64_t seed,
                            const DiffTolerances& tol,
                            const std::string& dump_dir) {
  DiffReport report;
  ScenarioGenerator gen(seed);
  for (int i = 0; i < scenarios; ++i) {
    const std::uint64_t index = gen.index();
    const Scenario s = gen.next();
    DiffReport one = check_scenario(s, tol);
    if (!one.ok()) {
      for (DiffFailure& f : one.failures) {
        f.generator_seed = seed;
        f.scenario_index = index;
        const std::string check = f.check;
        f.scenario = shrink(
            f.scenario,
            [&](const Scenario& candidate) {
              const DiffReport r = check_scenario(candidate, tol);
              for (const DiffFailure& rf : r.failures)
                if (rf.check == check) return true;
              return false;
            });
        if (!dump_dir.empty()) {
          std::filesystem::create_directories(dump_dir);
          const std::string path = dump_dir + "/diff-" +
                                   std::to_string(seed) + "-" +
                                   std::to_string(index) + "-" + check +
                                   ".scenario";
          std::ofstream out(path, std::ios::binary);
          out << f.scenario.to_text();
        }
      }
    }
    report.merge(one);
  }
  return report;
}

}  // namespace ftbesst::verify
