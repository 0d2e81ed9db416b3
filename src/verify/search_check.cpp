#include "verify/search_check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ft/checkpoint_cost.hpp"
#include "model/perf_model.hpp"
#include "net/topology.hpp"
#include "search/pareto.hpp"

namespace ftbesst::verify {

namespace {

constexpr const char* kWorkKernel = "work";

std::string checkpoint_kernel_name(ft::Level level) {
  return "ckpt_l" + std::to_string(static_cast<int>(level));
}

/// The work kernel, parameter-aware: compute instructions carry
/// {ranks, kernel_scale}. Strong scaling — the scenario's kernel_cost is
/// the per-timestep work at the scenario's own rank count, and adding
/// ranks divides it — so the ranks axis changes every cell by a large,
/// learnable margin (per-cell differences that only µs of comm or model
/// noise could produce are below any surrogate's resolution and would
/// make the bit-exact optimum gate a lottery).
class ScaledWorkModel final : public model::PerfModel {
 public:
  ScaledWorkModel(double base_seconds, double base_ranks)
      : base_(base_seconds), base_ranks_(base_ranks) {}
  [[nodiscard]] double predict(std::span<const double> p) const override {
    const double ranks = p.empty() || p[0] <= 0.0 ? base_ranks_ : p[0];
    const double scale = p.size() > 1 ? p[1] : 1.0;
    return base_ * scale * (base_ranks_ / ranks);
  }
  [[nodiscard]] std::string describe() const override {
    return "search_work(" + std::to_string(base_) +
           "s x scale x strong-scaling)";
  }

 private:
  double base_;
  double base_ranks_;
};

/// Checkpoint (or restart) cost evaluated from each instruction's own
/// {bytes_per_rank, ranks} params — the same device the service registry
/// uses (svc::RestartCostModel) so a single ArchBEO is correct for every
/// ranks point of the sweep.
class GridCheckpointModel final : public model::PerfModel {
 public:
  GridCheckpointModel(ft::Level level, ft::CheckpointCostModel cost,
                      bool restart)
      : level_(level), cost_(std::move(cost)), restart_(restart) {}
  [[nodiscard]] double predict(std::span<const double> p) const override {
    const auto bytes = static_cast<std::uint64_t>(p.empty() ? 0.0 : p[0]);
    const auto ranks = static_cast<std::int64_t>(p.size() > 1 ? p[1] : 1.0);
    return restart_ ? cost_.restart_cost(level_, bytes, ranks)
                    : cost_.cost(level_, bytes, ranks);
  }
  [[nodiscard]] std::string describe() const override {
    return std::string(restart_ ? "search_restart_l" : "search_ckpt_l") +
           std::to_string(static_cast<int>(level_));
  }

 private:
  ft::Level level_;
  ft::CheckpointCostModel cost_;
  bool restart_;
};

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

SearchGrid derive_search_grid(const Scenario& s) {
  if (s.timesteps < 1)
    throw std::invalid_argument("search grid needs timesteps >= 1");
  if (s.trials < 1)
    throw std::invalid_argument("search grid needs trials >= 1");
  if (s.kernel_cost <= 0.0 || !std::isfinite(s.kernel_cost))
    throw std::invalid_argument("search grid needs kernel_cost > 0");
  core::validate_plan(s.plan);

  auto topo = std::make_shared<net::TwoStageFatTree>(s.leaves,
                                                     s.nodes_per_leaf,
                                                     s.spines);
  core::ArchBEO arch("search_verify", topo, s.comm, s.ranks_per_node);
  arch.set_fti(s.fti);
  if (s.ranks < 1 || s.ranks > arch.max_ranks())
    throw std::invalid_argument("scenario ranks exceed the machine");

  // --- scenario axis: checkpoint-plan variants of the scenario's plan ---
  std::vector<ft::PlanEntry> base = s.plan;
  if (base.empty())
    base = {ft::PlanEntry{ft::Level::kL1, std::max(1, s.timesteps / 4),
                          false}};

  std::vector<core::Scenario> variants;
  auto add_variant = [&](const char* name, std::vector<ft::PlanEntry> plan) {
    const std::string key = core::format_plan(plan);
    for (const core::Scenario& v : variants)
      if (core::format_plan(v.plan) == key) return;
    variants.push_back(core::Scenario{name, std::move(plan)});
  };
  auto rescaled = [&](double factor) {
    std::vector<ft::PlanEntry> plan = base;
    for (ft::PlanEntry& e : plan)
      e.period = std::max(
          1, static_cast<int>(std::lround(e.period * factor)));
    return plan;
  };
  add_variant("no ft", {});
  add_variant("base", base);
  add_variant("sparse", rescaled(2.0));
  add_variant("dense", rescaled(0.5));
  const bool has_l4 = std::any_of(
      base.begin(), base.end(),
      [](const ft::PlanEntry& e) { return e.level == ft::Level::kL4; });
  if (!has_l4) {
    int max_period = 1;
    for (const ft::PlanEntry& e : base)
      max_period = std::max(max_period, e.period);
    std::vector<ft::PlanEntry> plan = base;
    plan.push_back(ft::PlanEntry{
        ft::Level::kL4, std::min(std::max(1, s.timesteps), 2 * max_period),
        false});
    add_variant("plus l4", plan);
  } else if (base.size() > 1) {
    const ft::PlanEntry lowest = *std::min_element(
        base.begin(), base.end(),
        [](const ft::PlanEntry& a, const ft::PlanEntry& b) {
          return static_cast<int>(a.level) < static_cast<int>(b.level);
        });
    add_variant("local only", {lowest});
  }

  // --- parameter axes: {kernel_scale, ranks} ---
  const std::vector<double> kscales{0.5, 0.75, 1.0, 1.25,
                                    1.5, 2.0,  2.5, 3.0};
  std::vector<std::int64_t> ranks_axis;
  for (std::int64_t r = s.ranks;
       r <= arch.max_ranks() && ranks_axis.size() < 4; r *= 2)
    ranks_axis.push_back(r);

  std::vector<std::vector<double>> points;
  points.reserve(kscales.size() * ranks_axis.size());
  for (double k : kscales)
    for (std::int64_t r : ranks_axis)
      points.push_back({k, static_cast<double>(r)});

  // --- models: all four levels bound so every plan variant prices ---
  model::PerfModelPtr work = std::make_shared<ScaledWorkModel>(
      s.kernel_cost, static_cast<double>(s.ranks));
  if (s.noise_sigma > 0.0)
    work = std::make_shared<model::NoisyModel>(std::move(work),
                                               s.noise_sigma);
  arch.bind_kernel(kWorkKernel, std::move(work));
  const ft::CheckpointCostModel cost(s.storage, s.fti);
  for (int l = 1; l <= 4; ++l) {
    const auto level = static_cast<ft::Level>(l);
    arch.bind_kernel(checkpoint_kernel_name(level),
                     std::make_shared<GridCheckpointModel>(level, cost,
                                                           false));
    arch.bind_restart(level,
                      std::make_shared<GridCheckpointModel>(level, cost,
                                                            true));
  }
  if (s.inject_faults)
    arch.set_fault_process(ft::FaultProcess(s.node_mtbf_seconds,
                                            s.loss_fraction,
                                            s.weibull_shape));

  // --- horizon: bound the worst cell of the grid, not just the scenario ---
  const std::int64_t worst_ranks = ranks_axis.back();
  double per_timestep = s.kernel_cost * kscales.back();
  if (s.exchange_degree > 0)
    per_timestep += arch.comm().neighbor_exchange_time(
        worst_ranks, s.exchange_degree, s.exchange_bytes);
  if (s.allreduce_bytes > 0)
    per_timestep += arch.comm().allreduce_time(worst_ranks,
                                               s.allreduce_bytes);
  if (s.barrier) per_timestep += arch.comm().barrier_time(worst_ranks);
  double worst_ckpt = 0.0;
  for (const core::Scenario& v : variants) {
    double total = 0.0;
    for (const ft::PlanEntry& e : v.plan)
      total += cost.cost(e.level, s.ckpt_bytes_per_rank, worst_ranks) *
               static_cast<double>(s.timesteps / std::max(1, e.period));
    worst_ckpt = std::max(worst_ckpt, total);
  }

  core::EngineOptions options;
  options.seed = s.seed;
  options.monte_carlo = s.monte_carlo;
  options.inject_faults = s.inject_faults;
  options.downtime_seconds = s.downtime_seconds;
  options.async_stage_fraction = s.async_stage_fraction;
  options.max_sim_seconds =
      s.horizon_multiplier * (per_timestep * s.timesteps + worst_ckpt +
                              10.0 * s.downtime_seconds + 1.0);

  const Scenario sc = s;  // self-contained copy for the app factory
  auto make_app = [sc](const core::Scenario& scenario,
                       const std::vector<double>& params) {
    const double kscale = params.at(0);
    const auto ranks = static_cast<std::int64_t>(params.at(1));
    core::AppBEO app("search_app", ranks);
    app.set_checkpoint_bytes_per_rank(sc.ckpt_bytes_per_rank);
    const ft::CheckpointScheduler scheduler(scenario.plan);
    const double ranks_d = static_cast<double>(ranks);
    const double bytes_d = static_cast<double>(sc.ckpt_bytes_per_rank);
    for (int t = 1; t <= sc.timesteps; ++t) {
      app.compute(kWorkKernel, {ranks_d, kscale});
      if (sc.exchange_degree > 0)
        app.neighbor_exchange(sc.exchange_degree, sc.exchange_bytes);
      if (sc.allreduce_bytes > 0) app.allreduce(sc.allreduce_bytes);
      if (sc.barrier) app.barrier();
      app.end_timestep();
      for (const ft::PlanEntry& entry : scheduler.due_entries_after(t))
        app.checkpoint(entry.level, checkpoint_kernel_name(entry.level),
                       {bytes_d, ranks_d}, entry.async);
    }
    return app;
  };

  search::SearchSpace space;
  space.scenarios = std::move(variants);
  space.points = std::move(points);
  space.validate();
  return SearchGrid{std::move(space), std::move(arch), options,
                    std::move(make_app)};
}

DiffReport check_search_vs_exhaustive(const Scenario& s,
                                      double budget_fraction) {
  DiffReport report;
  report.scenarios = 1;
  try {
    const SearchGrid g = derive_search_grid(s);
    const std::size_t cells = g.space.size();
    const auto trials = static_cast<std::size_t>(s.trials);

    const std::vector<core::DsePoint> exhaustive = core::run_dse(
        g.space.scenarios, g.space.points, g.make_app, g.arch, g.options,
        trials);

    double best_mean = exhaustive[0].ensemble.total.mean;
    for (const core::DsePoint& p : exhaustive)
      best_mean = std::min(best_mean, p.ensemble.total.mean);

    std::vector<search::ParetoPoint> all;
    all.reserve(cells);
    for (std::size_t flat = 0; flat < cells; ++flat)
      all.push_back(search::ParetoPoint{
          flat, exhaustive[flat].ensemble.total.mean,
          search::recoverability_score(
              g.space.scenarios[g.space.scenario_of(flat)].plan, s.fti)});
    const std::vector<search::ParetoPoint> exhaustive_front =
        search::pareto_front(all);

    search::SearchOptions opt;
    opt.method = search::Method::kGp;
    opt.mode = search::Mode::kPareto;
    opt.seed = s.seed;
    opt.trials = trials;
    opt.budget_fraction = budget_fraction;
    opt.fti = s.fti;
    // Sequential acquisition: refit after every evaluation. Batched picks
    // trade sample efficiency for wall-clock parallelism, and at a 10%
    // budget every evaluation has to count.
    opt.batch = 1;
    opt.threads = 1;
    const search::SearchResult serial =
        search::run_search_dse(g.space, opt, g.make_app, g.arch, g.options);
    opt.threads = 0;
    const search::SearchResult pooled =
        search::run_search_dse(g.space, opt, g.make_app, g.arch, g.options);

    ++report.search_checks;
    if (serial.to_text() != pooled.to_text())
      add_failure(report, "search_vs_exhaustive",
                  "to_text differs between threads=1 and the shared pool", s);

    ++report.search_checks;
    const auto max_evals = static_cast<std::size_t>(
        std::ceil(budget_fraction * static_cast<double>(cells)));
    if (serial.evaluations > max_evals ||
        serial.trial_units > serial.budget_units)
      add_failure(report, "search_vs_exhaustive",
                  "budget exceeded: " + std::to_string(serial.evaluations) +
                      " evaluations (cap " + std::to_string(max_evals) +
                      "), " + std::to_string(serial.trial_units) +
                      " trial units of " +
                      std::to_string(serial.budget_units), s);

    ++report.search_checks;
    if (!bits_equal(serial.best.objective, best_mean))
      add_failure(report, "search_vs_exhaustive",
                  "guided best " + std::to_string(serial.best.objective) +
                      " != exhaustive optimum " + std::to_string(best_mean), s);

    ++report.search_checks;
    std::vector<search::ParetoPoint> candidate;
    candidate.reserve(serial.pareto.size());
    for (const search::EvaluatedCell& c : serial.pareto)
      candidate.push_back(
          search::ParetoPoint{c.flat, c.objective, c.recoverability});
    if (!search::front_dominates_or_equals(candidate, exhaustive_front))
      add_failure(report, "search_vs_exhaustive",
                  "searched Pareto front (" +
                      std::to_string(candidate.size()) +
                      " points) fails to cover the exhaustive front (" +
                      std::to_string(exhaustive_front.size()) + " points)", s);

    // Successive halving promotes on reduced-fidelity values, so its
    // optimum gate only holds where reduced fidelity is exact: the
    // deterministic scenarios.
    if (!s.monte_carlo && !s.inject_faults && s.noise_sigma == 0.0) {
      search::SearchOptions bopt;
      bopt.method = search::Method::kBandit;
      bopt.mode = search::Mode::kSingle;
      bopt.seed = s.seed;
      bopt.trials = trials;
      bopt.budget_fraction = 1.0;
      bopt.fti = s.fti;
      bopt.threads = 1;
      const search::SearchResult bandit = search::run_search_dse(
          g.space, bopt, g.make_app, g.arch, g.options);
      ++report.search_checks;
      if (!bits_equal(bandit.best.objective, best_mean))
        add_failure(report, "search_vs_exhaustive",
                    "bandit best " + std::to_string(bandit.best.objective) +
                        " != exhaustive optimum " +
                        std::to_string(best_mean), s);
    }
  } catch (const std::exception& e) {
    add_failure(report, "exception", e.what(), s);
  }
  return report;
}

}  // namespace ftbesst::verify
