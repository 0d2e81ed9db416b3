#include "core/workflow.hpp"

#include <exception>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "util/number.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::core {

void ModelSuite::bind_into(ArchBEO& arch) const {
  for (const auto& [name, fitted] : kernels)
    arch.bind_kernel(name, fitted.noisy_model);
}

ModelSuite develop_models(
    const std::map<std::string, model::Dataset>& calibration,
    const model::FitOptions& options) {
  if (calibration.empty())
    throw std::invalid_argument("no calibration datasets");
  // One shared-pool task per kernel. Seeds are derived before submission
  // and each fit writes its own slot, so the suite, assembled in map order
  // afterwards, is the serial loop's for any pool width. A failure is kept
  // in its kernel's slot too: wait() would rethrow whichever fit failed
  // first in time, the serial loop the first in map order.
  std::vector<model::FittedKernel> fitted(calibration.size());
  std::vector<std::exception_ptr> errors(calibration.size());
  util::TaskGroup group;
  std::size_t slot = 0;
  for (const auto& [kernel, dataset] : calibration) {
    model::FitOptions per_kernel = options;
    // Decorrelate the per-kernel splits/searches deterministically.
    per_kernel.seed = options.seed ^ std::hash<std::string>{}(kernel);
    group.run([&fitted, &errors, data = &dataset, per_kernel, slot] {
      try {
        fitted[slot] = model::fit_kernel_model(*data, per_kernel);
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    });
    ++slot;
  }
  group.wait();
  ModelSuite suite;
  slot = 0;
  for (const auto& [kernel, dataset] : calibration) {
    if (errors[slot]) std::rethrow_exception(errors[slot]);
    suite.reports.push_back(KernelModelReport{kernel, fitted[slot].report});
    suite.kernels.emplace(kernel, std::move(fitted[slot]));
    ++slot;
  }
  return suite;
}

std::vector<ft::PlanEntry> parse_plan(const std::string& text) {
  std::vector<ft::PlanEntry> plan;
  std::size_t start = 0;
  while (start <= text.size()) {
    const auto comma = text.find(',', start);
    const auto end = comma == std::string::npos ? text.size() : comma;
    std::string part = text.substr(start, end - start);
    // Trim surrounding spaces so "L1:40, L2:40" parses.
    while (!part.empty() && part.front() == ' ') part.erase(0, 1);
    while (!part.empty() && part.back() == ' ') part.pop_back();
    if (!part.empty()) {
      const auto bad = [&part](const std::string& why) {
        return std::invalid_argument("bad plan entry '" + part + "': " + why +
                                     " (expected e.g. L1:40 or L4:100a)");
      };
      if (part[0] != 'L' && part[0] != 'l') throw bad("must start with L");
      const auto colon = part.find(':');
      if (colon == std::string::npos || colon < 2) throw bad("missing ':'");
      ft::PlanEntry entry;
      std::string period_text = part.substr(colon + 1);
      if (!period_text.empty() &&
          (period_text.back() == 'a' || period_text.back() == 'A')) {
        entry.async = true;
        period_text.pop_back();
      }
      const auto level = util::try_parse_number<int>(
          std::string_view(part).substr(1, colon - 1));
      const auto period = util::try_parse_number<int>(period_text);
      if (!level || !period)
        throw bad("level and period must be integers in range");
      if (*level < 1 || *level > 4) throw bad("checkpoint level must be 1-4");
      if (*period < 1) throw bad("period must be >= 1 timestep");
      entry.level = static_cast<ft::Level>(*level);
      entry.period = *period;
      plan.push_back(entry);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  validate_plan(plan);
  return plan;
}

void validate_plan(const std::vector<ft::PlanEntry>& plan) {
  bool seen[5] = {};
  for (const ft::PlanEntry& e : plan) {
    const int level = static_cast<int>(e.level);
    if (level < 1 || level > 4)
      throw std::invalid_argument("checkpoint level must be 1-4, got L" +
                                  std::to_string(level));
    if (e.period < 1)
      throw std::invalid_argument("checkpoint period must be >= 1, got " +
                                  std::to_string(e.period) + " for L" +
                                  std::to_string(level));
    if (seen[level])
      throw std::invalid_argument("duplicate checkpoint level L" +
                                  std::to_string(level) + " in plan");
    seen[level] = true;
  }
}

namespace {

/// Shared body of run_dse / run_dse_cells: price the requested cells on
/// the pool. Per-cell seeds come from the cell's flat grid index, so any
/// subset evaluation is bit-identical to the matching slice of the
/// exhaustive sweep.
std::vector<DsePoint> run_cells(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::vector<double>>& parameter_points,
    const std::vector<DseCell>& cells,
    const std::function<AppBEO(const Scenario&, const std::vector<double>&)>&
        make_app,
    const ArchBEO& arch, const EngineOptions& options,
    std::size_t default_trials, unsigned threads) {
  if (!make_app) throw std::invalid_argument("make_app is required");
  // Points-per-second observability: each completed point bumps the counter
  // and records its wall-clock seconds (clocked only while obs is enabled).
  static const obs::Counter point_count = obs::counter("dse.points");
  static const obs::Histogram point_seconds = obs::histogram(
      "dse.point_seconds",
      {1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 300.0});
  const std::size_t point_count_per_scenario = parameter_points.size();
  std::vector<DsePoint> out(cells.size());
  // One shared-pool task per cell; each cell's run_ensemble fans its
  // trials onto the same pool, so the whole sweep flattens into
  // (cells x trials) dynamically-claimed tasks. Per-cell seeds are derived
  // here, before scheduling, so results are bit-identical to the serial
  // sweep regardless of scheduling.
  util::TaskGroup group;
  for (std::size_t slot = 0; slot < cells.size(); ++slot) {
    const DseCell& cell = cells[slot];
    if (cell.flat >= scenarios.size() * point_count_per_scenario)
      throw std::invalid_argument("run_dse_cells: flat index out of range");
    const Scenario* scenario_p = &scenarios[cell.flat / point_count_per_scenario];
    const std::vector<double>* params_p =
        &parameter_points[cell.flat % point_count_per_scenario];
    EngineOptions per_point = options;
    per_point.seed =
        options.seed + 0x9e37 * (static_cast<std::uint64_t>(cell.flat) + 1);
    const std::size_t trials = cell.trials != 0 ? cell.trials : default_trials;
    auto run_point = [&make_app, &arch, &out, scenario_p, params_p, per_point,
                      trials, threads, slot] {
      const bool observed = obs::enabled();
      const std::uint64_t t0 = observed ? obs::now_ns() : 0;
      const AppBEO app = make_app(*scenario_p, *params_p);
      DsePoint point;
      point.scenario = scenario_p->name;
      point.params = *params_p;
      point.ensemble = run_ensemble(app, arch, per_point, trials, threads);
      out[slot] = std::move(point);
      if (observed) {
        point_count.add();
        point_seconds.observe(static_cast<double>(obs::now_ns() - t0) * 1e-9);
      }
    };
    if (threads == 1)
      run_point();
    else
      group.run(std::move(run_point));
  }
  group.wait();
  return out;
}

}  // namespace

std::vector<DsePoint> run_dse(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::vector<double>>& parameter_points,
    const std::function<AppBEO(const Scenario&, const std::vector<double>&)>&
        make_app,
    const ArchBEO& arch, const EngineOptions& options, std::size_t trials,
    unsigned threads) {
  FTBESST_OBS_SPAN("core.run_dse");
  std::vector<DseCell> cells(scenarios.size() * parameter_points.size());
  for (std::size_t f = 0; f < cells.size(); ++f) cells[f].flat = f;
  return run_cells(scenarios, parameter_points, cells, make_app, arch, options,
                   trials, threads);
}

std::vector<DsePoint> run_dse_cells(
    const std::vector<Scenario>& scenarios,
    const std::vector<std::vector<double>>& parameter_points,
    const std::vector<DseCell>& cells,
    const std::function<AppBEO(const Scenario&, const std::vector<double>&)>&
        make_app,
    const ArchBEO& arch, const EngineOptions& options,
    std::size_t default_trials, unsigned threads) {
  FTBESST_OBS_SPAN("core.run_dse_cells");
  if (default_trials == 0)
    for (const DseCell& cell : cells)
      if (cell.trials == 0)
        throw std::invalid_argument(
            "run_dse_cells: cell without trials and no default");
  return run_cells(scenarios, parameter_points, cells, make_app, arch, options,
                   default_trials, threads);
}

std::string format_plan(const std::vector<ft::PlanEntry>& plan) {
  std::string out;
  for (const ft::PlanEntry& e : plan) {
    if (!out.empty()) out += ',';
    out += 'L';
    out += std::to_string(static_cast<int>(e.level));
    out += ':';
    out += std::to_string(e.period);
    if (e.async) out += 'a';
  }
  return out;
}

}  // namespace ftbesst::core
