#include "svc/registry.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/stencil3d.hpp"
#include "apps/testbed.hpp"
#include "core/engine_bsp.hpp"
#include "core/montecarlo.hpp"
#include "ft/checkpoint_cost.hpp"
#include "inject/campaign.hpp"
#include "model/dataset.hpp"
#include "model/serialize.hpp"
#include "net/topology.hpp"
#include "search/search.hpp"
#include "util/stats.hpp"

namespace ftbesst::svc {

namespace {

std::shared_ptr<core::ArchBEO> make_arch(const RegistryOptions& options) {
  auto topo = std::make_shared<net::TwoStageFatTree>(
      options.leaves, options.nodes_per_leaf, options.spines);
  net::CommParams comm;
  comm.bandwidth = options.bandwidth;
  auto arch = std::make_shared<core::ArchBEO>("quartz", topo, comm,
                                              options.ranks_per_node);
  arch->set_fti(options.fti);
  return arch;
}

/// Kernels the serving workloads can reference.
std::vector<std::string> serving_kernels() {
  std::vector<std::string> kernels{apps::kLuleshTimestep};
  for (int level = 1; level <= 4; ++level)
    kernels.push_back(apps::checkpoint_kernel(static_cast<ft::Level>(level)));
  return kernels;
}

std::uint64_t app_checkpoint_bytes(const std::string& app, int size) {
  return app == "lulesh" ? apps::lulesh_checkpoint_bytes(size)
                         : apps::stencil3d_checkpoint_bytes(size);
}

}  // namespace

RestartCostModel::RestartCostModel(std::string app, ft::Level level,
                                   ft::CheckpointCostModel cost)
    : app_(std::move(app)), level_(level), cost_(std::move(cost)) {}

double RestartCostModel::predict(std::span<const double> params) const {
  if (params.size() < 2)
    throw std::invalid_argument(
        "restart model expects {size, ranks} checkpoint params");
  return cost_.restart_cost(
      level_, app_checkpoint_bytes(app_, static_cast<int>(params[0])),
      static_cast<std::int64_t>(params[1]));
}

std::string RestartCostModel::describe() const {
  return "restart_cost(" + app_ + ", L" +
         std::to_string(static_cast<int>(level_)) + ")";
}

Registry::Registry(std::shared_ptr<const core::ArchBEO> arch)
    : arch_(std::move(arch)) {
  if (!arch_) throw std::invalid_argument("Registry: null architecture");
}

Registry Registry::analytic() {
  auto topo = std::make_shared<net::TwoStageFatTree>(4, 4, 2);
  auto arch =
      std::make_shared<core::ArchBEO>("test", topo, net::CommParams{}, 4);
  arch->bind_kernel(apps::kLuleshTimestep,
                    std::make_shared<model::ConstantModel>(0.01));
  arch->bind_kernel(apps::kStencilSweep,
                    std::make_shared<model::ConstantModel>(0.005));
  for (int level = 1; level <= 4; ++level)
    arch->bind_kernel(
        apps::checkpoint_kernel(static_cast<ft::Level>(level)),
        std::make_shared<model::ConstantModel>(0.002 * level));
  return Registry{std::shared_ptr<const core::ArchBEO>(std::move(arch))};
}

std::size_t Registry::save_models(const std::string& dir) const {
  std::filesystem::create_directories(dir);
  std::vector<std::string> kernels = serving_kernels();
  kernels.push_back(apps::kStencilSweep);
  std::size_t written = 0;
  for (const std::string& kernel : kernels) {
    if (!arch_->has_kernel(kernel)) continue;
    const std::string path = dir + "/" + kernel + ".model";
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write model file " + path);
    model::save_model(os, arch_->kernel(kernel));
    if (!os.good())
      throw std::runtime_error("short write on model file " + path);
    ++written;
  }
  return written;
}

Registry Registry::open(const RegistryOptions& options) {
  auto arch = make_arch(options);
  std::vector<core::KernelModelReport> reports;
  if (!options.models_dir.empty()) {
    // Persisted-model path: reload `ftbesst fit` artifacts. The timestep
    // model is mandatory; checkpoint levels and the stencil kernel are
    // bound when present and otherwise rejected per-request.
    auto try_load = [&](const std::string& kernel, bool required) {
      const std::string path = options.models_dir + "/" + kernel + ".model";
      std::ifstream is(path);
      if (!is) {
        if (required)
          throw std::invalid_argument("missing model file " + path +
                                      " (run `ftbesst fit` first)");
        return;
      }
      arch->bind_kernel(kernel, model::load_model(is));
    };
    try_load(apps::kLuleshTimestep, true);
    for (int level = 1; level <= 4; ++level)
      try_load(apps::checkpoint_kernel(static_cast<ft::Level>(level)), false);
    try_load(apps::kStencilSweep, false);
  } else {
    // Calibrate mode: pay the full Model Development phase once, here.
    apps::QuartzTestbed testbed({}, options.fti);
    apps::CampaignSpec spec;
    spec.samples_per_point = options.samples;
    spec.seed = options.seed;
    const auto calibration =
        apps::run_campaign(testbed, spec, serving_kernels());
    model::FitOptions fit;
    fit.seed = options.seed;
    const core::ModelSuite suite = core::develop_models(calibration, fit);
    suite.bind_into(*arch);
    reports = suite.reports;
  }
  Registry registry{std::shared_ptr<const core::ArchBEO>(std::move(arch))};
  registry.reports_ = std::move(reports);
  return registry;
}

namespace {

std::vector<double> number_array(const Json& request, const char* field) {
  const Json* v = request.find(field);
  if (!v)
    throw std::invalid_argument(std::string("request missing '") + field +
                                "'");
  std::vector<double> out;
  for (const Json& x : v->as_array()) out.push_back(x.as_number());
  return out;
}

Json summarize_ensemble(const core::EnsembleResult& ens) {
  JsonObject out;
  out["trials"] = Json(ens.totals.size());
  out["mean"] = Json(ens.total.mean);
  out["stddev"] = Json(ens.total.stddev);
  out["min"] = Json(ens.total.min);
  out["max"] = Json(ens.total.max);
  out["median"] = Json(ens.total.median);
  out["p10"] = Json(util::quantile(ens.totals, 0.1));
  out["p90"] = Json(util::quantile(ens.totals, 0.9));
  out["mean_faults"] = Json(ens.mean_faults);
  out["mean_rollbacks"] = Json(ens.mean_rollbacks);
  out["mean_full_restarts"] = Json(ens.mean_full_restarts);
  out["incomplete_trials"] = Json(ens.incomplete_trials);
  return Json(std::move(out));
}

/// Shared simulate/dse knobs parsed straight off the request object.
struct WorkloadSpec {
  std::string app;
  int timesteps = 200;
  std::size_t trials = 20;
  std::uint64_t seed = 42;
  double mtbf_hours = 0.0;  ///< 0 = no fault injection
  double downtime = 10.0;
};

WorkloadSpec parse_workload(const Json& request) {
  WorkloadSpec spec;
  spec.app = request.string_or("app", "lulesh");
  if (spec.app != "lulesh" && spec.app != "stencil3d")
    throw std::invalid_argument("app must be lulesh|stencil3d, got '" +
                                spec.app + "'");
  spec.timesteps = static_cast<int>(request.int_or("timesteps", 200));
  if (spec.timesteps < 1)
    throw std::invalid_argument("timesteps must be >= 1");
  const std::int64_t trials = request.int_or("trials", 20);
  if (trials < 1 || trials > 100000)
    throw std::invalid_argument("trials must be in 1..100000");
  spec.trials = static_cast<std::size_t>(trials);
  spec.seed = static_cast<std::uint64_t>(request.int_or("seed", 42));
  spec.mtbf_hours = request.number_or("mtbf_hours", 0.0);
  if (spec.mtbf_hours < 0.0)
    throw std::invalid_argument("mtbf_hours must be >= 0");
  spec.downtime = request.number_or("downtime", 10.0);
  return spec;
}

/// Build the AppBEO for one (scenario plan, parameter point). Parameters
/// are {epr, ranks} for LULESH and {nx, ranks} for Stencil3D, matching the
/// calibration convention. Config validate() supplies the clean errors
/// (perfect-cube ranks, FTI divisibility).
core::AppBEO build_app(const std::string& app,
                       const std::vector<ft::PlanEntry>& plan,
                       const ft::FtiConfig& fti, double size_param,
                       double ranks_param, int timesteps) {
  const auto size = static_cast<int>(size_param);
  const auto ranks = static_cast<std::int64_t>(ranks_param);
  if (static_cast<double>(size) != size_param ||
      static_cast<double>(ranks) != ranks_param)
    throw std::invalid_argument("size/ranks parameters must be integers");
  if (app == "lulesh") {
    apps::LuleshConfig cfg;
    cfg.epr = size;
    cfg.ranks = ranks;
    cfg.timesteps = timesteps;
    cfg.plan = plan;
    cfg.fti = fti;
    cfg.validate();
    return apps::build_lulesh_fti(cfg);
  }
  apps::Stencil3dConfig cfg;
  cfg.nx = size;
  cfg.ranks = ranks;
  cfg.sweeps = timesteps;
  cfg.plan = plan;
  cfg.fti = fti;
  cfg.validate();
  return apps::build_stencil3d(cfg);
}

/// Every kernel the request's plans reference must have a bound model —
/// checked up front so the failure is a clean client error rather than a
/// std::out_of_range from inside the engine.
void require_kernels(const core::ArchBEO& arch, const std::string& app,
                     const std::vector<core::Scenario>& scenarios) {
  const std::string timestep_kernel =
      app == "lulesh" ? apps::kLuleshTimestep : apps::kStencilSweep;
  auto require = [&arch](const std::string& kernel) {
    if (!arch.has_kernel(kernel))
      throw std::invalid_argument("no model bound for kernel '" + kernel +
                                  "' in this registry");
  };
  require(timestep_kernel);
  for (const core::Scenario& scenario : scenarios)
    for (const ft::PlanEntry& entry : scenario.plan)
      require(apps::checkpoint_kernel(entry.level));
}

/// Engine options + (when faults are requested) a private ArchBEO copy
/// with the fault process and per-level restart models bound. Restart
/// models are RestartCostModel instances evaluated against each
/// checkpoint's own {size, ranks} params, so one prepared arch is valid
/// for every parameter point of a sweep.
struct PreparedRun {
  core::EngineOptions options;
  std::shared_ptr<const core::ArchBEO> arch;  ///< registry's or the copy
};

PreparedRun prepare_run(const Registry& registry, const WorkloadSpec& spec,
                        const std::vector<core::Scenario>& scenarios) {
  PreparedRun run;
  run.options.seed = spec.seed;
  run.arch = std::shared_ptr<const core::ArchBEO>(
      std::shared_ptr<const core::ArchBEO>{}, &registry.arch());
  if (spec.mtbf_hours <= 0.0) return run;

  run.options.inject_faults = true;
  run.options.downtime_seconds = spec.downtime;
  auto arch = std::make_shared<core::ArchBEO>(registry.arch());
  arch->set_fault_process(ft::FaultProcess(spec.mtbf_hours * 3600.0, 1.0));
  const ft::CheckpointCostModel cost({}, arch->fti());
  for (const core::Scenario& scenario : scenarios)
    for (const ft::PlanEntry& entry : scenario.plan)
      arch->bind_restart(entry.level, std::make_shared<RestartCostModel>(
                                          spec.app, entry.level, cost));
  run.arch = arch;
  return run;
}

Json op_predict(const Registry& registry, const Json& request) {
  const std::string kernel = request.string_or("kernel", "");
  if (kernel.empty())
    throw std::invalid_argument("predict needs a 'kernel' field");
  if (!registry.arch().has_kernel(kernel))
    throw std::invalid_argument("no model bound for kernel '" + kernel + "'");
  const model::PerfModel& model = registry.arch().kernel(kernel);

  // Batch form: "points": [[...], ...] prices the whole sweep through the
  // model's batch path (ExprProgram::eval_dataset for ExprModel, a reused
  // feature row for FeatureModel) — bit-identical to per-point predict, one
  // column-major pass instead of len(points) tree walks.
  if (const Json* points_json = request.find("points")) {
    if (request.find("params"))
      throw std::invalid_argument("predict takes 'params' or 'points', not both");
    std::vector<std::vector<double>> points;
    for (const Json& p : points_json->as_array()) {
      std::vector<double> point;
      for (const Json& x : p.as_array()) point.push_back(x.as_number());
      if (point.empty())
        throw std::invalid_argument("each predict point needs >= 1 parameter");
      if (!points.empty() && point.size() != points.front().size())
        throw std::invalid_argument("predict points must share one arity");
      points.push_back(std::move(point));
    }
    if (points.empty())
      throw std::invalid_argument("predict needs at least one point");
    std::vector<std::string> names;
    for (std::size_t d = 0; d < points.front().size(); ++d)
      names.push_back("p" + std::to_string(d));
    model::Dataset data(std::move(names));
    for (auto& point : points) data.add_row(std::move(point), {0.0});
    std::vector<double> values;
    model.predict_batch(data, values);
    JsonArray out_values;
    for (const double v : values) out_values.emplace_back(v);
    JsonObject out;
    out["values"] = Json(std::move(out_values));
    out["model"] = Json(model.describe());
    return Json(std::move(out));
  }

  const std::vector<double> params = number_array(request, "params");
  JsonObject out;
  out["value"] = Json(model.predict(params));
  out["model"] = Json(model.describe());
  return Json(std::move(out));
}

/// One simulate/inject point: the request's plan, size and ranks, checked
/// against the bound kernels and built into an AppBEO on the prepared arch.
struct PreparedPoint {
  PreparedRun run;
  core::AppBEO app;
};

PreparedPoint prepare_point(const Registry& registry, const WorkloadSpec& spec,
                            const Json& request) {
  const std::vector<ft::PlanEntry> plan =
      core::parse_plan(request.string_or("plan", ""));
  const double size = request.number_or(
      spec.app == "lulesh" ? "epr" : "nx", spec.app == "lulesh" ? 15 : 32);
  const double ranks = request.number_or("ranks", 64);

  const std::vector<core::Scenario> scenarios{{"request", plan}};
  require_kernels(registry.arch(), spec.app, scenarios);
  PreparedRun run = prepare_run(registry, spec, scenarios);
  core::AppBEO app = build_app(spec.app, plan, run.arch->fti(), size, ranks,
                               spec.timesteps);
  return {std::move(run), std::move(app)};
}

Json op_simulate(const Registry& registry, const Json& request) {
  const WorkloadSpec spec = parse_workload(request);
  const PreparedPoint point = prepare_point(registry, spec, request);
  return summarize_ensemble(core::run_ensemble(
      point.app, *point.run.arch, point.run.options, spec.trials));
}

Json op_inject(const Registry& registry, const Json& request) {
  const WorkloadSpec spec = parse_workload(request);
  if (spec.mtbf_hours <= 0.0)
    throw std::invalid_argument("inject needs mtbf_hours > 0");
  const PreparedPoint point = prepare_point(registry, spec, request);

  inject::CampaignOptions opt;
  opt.trials = spec.trials;
  opt.engine = point.run.options;
  opt.use_des = request.int_or("use_des", 1) != 0;
  // Bound the simulation horizon from a clean deterministic run (same
  // formula as verify::build), so a thrashing configuration is abandoned
  // there instead of running to the 1e8-second default.
  core::EngineOptions clean = point.run.options;
  clean.inject_faults = false;
  clean.monte_carlo = false;
  const double clean_estimate =
      core::run_bsp(point.app, *point.run.arch, clean).total_seconds;
  opt.engine.max_sim_seconds =
      1000.0 * (clean_estimate + 10.0 * spec.downtime + 1.0);
  const inject::CampaignResult res =
      inject::run_campaign(point.app, *point.run.arch, opt);

  // The ensemble summary (its p10/p90 are the campaign's) plus the
  // injection statistics.
  Json out = summarize_ensemble(res);
  JsonObject& fields = out.as_object();
  fields["mean_lost_work"] = Json(res.mean_lost_work);
  JsonArray recoveries;
  for (const double r : res.mean_recoveries_by_level)
    recoveries.emplace_back(r);
  fields["mean_recoveries_by_level"] = Json(std::move(recoveries));
  fields["fault_records"] = Json(res.fault_log.size());
  return out;
}

std::vector<core::Scenario> parse_scenarios(const Json& request,
                                            const char* op_name) {
  const Json* scenarios_json = request.find("scenarios");
  if (!scenarios_json)
    throw std::invalid_argument(std::string(op_name) +
                                " needs a 'scenarios' array");
  std::vector<core::Scenario> scenarios;
  for (const Json& s : scenarios_json->as_array()) {
    core::Scenario scenario;
    scenario.name = s.string_or("name", "");
    if (scenario.name.empty())
      throw std::invalid_argument("each scenario needs a 'name'");
    scenario.plan = core::parse_plan(s.string_or("plan", ""));
    scenarios.push_back(std::move(scenario));
  }
  if (scenarios.empty())
    throw std::invalid_argument(std::string(op_name) +
                                " needs at least one scenario");
  return scenarios;
}

/// Parameter points: explicit [[size, ranks], ...] or the cartesian grid
/// of "eprs"/"nxs" x "ranks" (Table II style sweep-grid requests).
std::vector<std::vector<double>> parse_points(const Json& request,
                                              const WorkloadSpec& spec,
                                              const char* op_name) {
  std::vector<std::vector<double>> points;
  if (request.find("points")) {
    for (const Json& p : request.find("points")->as_array()) {
      std::vector<double> point;
      for (const Json& x : p.as_array()) point.push_back(x.as_number());
      if (point.size() != 2)
        throw std::invalid_argument(std::string("each ") + op_name +
                                    " point must be [size, ranks]");
      points.push_back(std::move(point));
    }
  } else {
    const char* size_field = spec.app == "lulesh" ? "eprs" : "nxs";
    const std::vector<double> sizes = number_array(request, size_field);
    const std::vector<double> ranks = number_array(request, "ranks");
    for (const double s : sizes)
      for (const double r : ranks) points.push_back({s, r});
  }
  if (points.empty())
    throw std::invalid_argument(std::string(op_name) +
                                " needs at least one parameter point");
  return points;
}

/// The dse response body for a list of priced cells. The search op reuses
/// this for the single-cell entries it writes back to the cache, so those
/// bytes are identical to what the matching one-cell dse request would
/// compute.
Json dse_response(const std::vector<core::DsePoint>& points_result,
                  std::size_t scenario_count, std::size_t trials) {
  JsonArray out_points;
  for (const core::DsePoint& p : points_result) {
    JsonObject cell;
    cell["scenario"] = Json(p.scenario);
    JsonArray params;
    for (const double v : p.params) params.emplace_back(v);
    cell["params"] = Json(std::move(params));
    cell["ensemble"] = summarize_ensemble(p.ensemble);
    out_points.emplace_back(std::move(cell));
  }
  JsonObject out;
  out["points"] = Json(std::move(out_points));
  out["scenarios"] = Json(scenario_count);
  out["trials"] = Json(trials);
  return Json(std::move(out));
}

/// Ensemble statistic used for top_k ranking.
double objective_value(const core::EnsembleResult& ens,
                       const std::string& objective) {
  if (objective == "mean") return ens.total.mean;
  if (objective == "median") return ens.total.median;
  if (objective == "p90") return util::quantile(ens.totals, 0.9);
  if (objective == "min") return ens.total.min;
  if (objective == "max") return ens.total.max;
  throw std::invalid_argument(
      "objective must be mean|median|p90|min|max, got '" + objective + "'");
}

Json op_dse(const Registry& registry, const Json& request) {
  const WorkloadSpec spec = parse_workload(request);
  const std::vector<core::Scenario> scenarios =
      parse_scenarios(request, "dse");
  const std::vector<std::vector<double>> points =
      parse_points(request, spec, "dse");
  if (points.size() * scenarios.size() > 10000)
    throw std::invalid_argument("dse sweep too large (> 10000 points)");
  const std::int64_t top_k = request.int_or("top_k", 0);
  if (top_k < 0) throw std::invalid_argument("top_k must be >= 0");
  const std::int64_t threads = request.int_or("threads", 0);
  if (threads < 0) throw std::invalid_argument("threads must be >= 0");
  const std::string objective = request.string_or("objective", "mean");
  if (objective != "mean" || request.find("objective")) {
    // Validate eagerly, before paying for the sweep.
    core::EnsembleResult probe;
    probe.totals = {0.0};
    (void)objective_value(probe, objective);
  }

  require_kernels(registry.arch(), spec.app, scenarios);
  const PreparedRun run = prepare_run(registry, spec, scenarios);
  // Validate every point eagerly so a bad cell fails the whole request with
  // a clean message instead of throwing inside a pool task mid-sweep.
  for (const auto& point : points)
    (void)build_app(spec.app, {}, run.arch->fti(), point[0], point[1], 1);

  const std::string app_name = spec.app;
  const ft::FtiConfig fti = run.arch->fti();
  const int timesteps = spec.timesteps;
  auto points_result = core::run_dse(
      scenarios, points,
      [&app_name, &fti, timesteps](const core::Scenario& scenario,
                                   const std::vector<double>& params) {
        return build_app(app_name, scenario.plan, fti, params[0], params[1],
                         timesteps);
      },
      *run.arch, run.options, spec.trials, static_cast<unsigned>(threads));

  if (top_k == 0) return dse_response(points_result, scenarios.size(), spec.trials);

  // Best-k filter: rank by the chosen ensemble statistic, ties broken by
  // grid (submission) order so the result is byte-identical at any thread
  // count, then ship only those cells — in rank order.
  std::vector<std::size_t> order(points_result.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> values(points_result.size());
  for (std::size_t i = 0; i < points_result.size(); ++i)
    values[i] = objective_value(points_result[i].ensemble, objective);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  });
  const std::size_t keep =
      std::min(points_result.size(), static_cast<std::size_t>(top_k));
  std::vector<core::DsePoint> best(keep);
  for (std::size_t i = 0; i < keep; ++i)
    best[i] = std::move(points_result[order[i]]);
  Json out = dse_response(best, scenarios.size(), spec.trials);
  out.as_object()["top_k"] = Json(keep);
  out.as_object()["objective"] = Json(objective);
  return out;
}

/// The canonical cache key of the one-cell dse request matching grid cell
/// `flat` of a search. Every workload field is materialized explicitly
/// (no omitted defaults) so the key is a pure function of the search
/// space, and the cell seed is offset by the flat index exactly as
/// run_dse's per-point seed derivation would do one level deeper — which
/// makes the stored single-cell response bit-identical to the matching
/// cell of the exhaustive sweep.
std::string cell_dse_key(const WorkloadSpec& spec,
                         const std::vector<core::Scenario>& scenarios,
                         const std::vector<std::vector<double>>& points,
                         std::size_t flat) {
  const core::Scenario& scenario = scenarios[flat / points.size()];
  const std::vector<double>& point = points[flat % points.size()];
  JsonObject req;
  req["op"] = Json(std::string("dse"));
  req["app"] = Json(spec.app);
  req["timesteps"] = Json(spec.timesteps);
  req["trials"] = Json(spec.trials);
  req["mtbf_hours"] = Json(spec.mtbf_hours);
  req["downtime"] = Json(spec.downtime);
  req["seed"] = Json(static_cast<double>(
      spec.seed + 0x9e37 * static_cast<std::uint64_t>(flat)));
  JsonObject scen;
  scen["name"] = Json(scenario.name);
  scen["plan"] = Json(core::format_plan(scenario.plan));
  JsonArray scens;
  scens.emplace_back(std::move(scen));
  req["scenarios"] = Json(std::move(scens));
  JsonArray coords;
  for (const double v : point) coords.emplace_back(v);
  JsonArray pts;
  pts.emplace_back(std::move(coords));
  req["points"] = Json(std::move(pts));
  return canonical_key(Json(std::move(req)));
}

search::Method parse_method(const std::string& text) {
  if (text == "auto") return search::Method::kAuto;
  if (text == "gp") return search::Method::kGp;
  if (text == "bandit") return search::Method::kBandit;
  throw std::invalid_argument("method must be auto|gp|bandit, got '" + text +
                              "'");
}

search::Mode parse_mode(const std::string& text) {
  if (text == "single") return search::Mode::kSingle;
  if (text == "pareto") return search::Mode::kPareto;
  throw std::invalid_argument("mode must be single|pareto, got '" + text +
                              "'");
}

Json search_cell_json(const search::EvaluatedCell& cell) {
  JsonObject out;
  out["scenario"] = Json(cell.scenario);
  JsonArray params;
  for (const double v : cell.params) params.emplace_back(v);
  out["params"] = Json(std::move(params));
  out["objective"] = Json(cell.objective);
  out["recoverability"] = Json(cell.recoverability);
  return Json(std::move(out));
}

Json op_search(const Registry& registry, const Json& request,
               const CacheHooks& hooks) {
  const WorkloadSpec spec = parse_workload(request);
  const std::vector<core::Scenario> scenarios =
      parse_scenarios(request, "search");
  const std::vector<std::vector<double>> points =
      parse_points(request, spec, "search");
  if (points.size() * scenarios.size() > 10000)
    throw std::invalid_argument("search space too large (> 10000 points)");

  search::SearchSpace space;
  space.scenarios = scenarios;
  space.points = points;

  search::SearchOptions sopt;
  sopt.seed = spec.seed;
  sopt.trials = spec.trials;
  sopt.budget_units = request.number_or("budget", 0.0);
  sopt.budget_fraction = request.number_or("budget_fraction", 0.10);
  sopt.method = parse_method(request.string_or("method", "auto"));
  sopt.mode = parse_mode(request.string_or("mode", "single"));
  const std::int64_t batch = request.int_or("batch", 4);
  const std::int64_t init = request.int_or("init", 0);
  if (batch < 1) throw std::invalid_argument("batch must be >= 1");
  if (init < 0) throw std::invalid_argument("init must be >= 0");
  sopt.batch = static_cast<std::size_t>(batch);
  sopt.init = static_cast<std::size_t>(init);
  const std::int64_t top_k = request.int_or("top_k", 0);
  if (top_k < 0) throw std::invalid_argument("top_k must be >= 0");
  const std::int64_t threads = request.int_or("threads", 0);
  if (threads < 0) throw std::invalid_argument("threads must be >= 0");
  sopt.threads = static_cast<unsigned>(threads);

  require_kernels(registry.arch(), spec.app, scenarios);
  const PreparedRun run = prepare_run(registry, spec, scenarios);
  sopt.fti = run.arch->fti();
  for (const auto& point : points)
    (void)build_app(spec.app, {}, run.arch->fti(), point[0], point[1], 1);

  // Warm start: probe the result cache for every cell's single-cell dse
  // entry. Hits become free surrogate observations (they carry the exact
  // objective a full-fidelity evaluation would recompute).
  std::vector<search::WarmObservation> warm;
  if (hooks.get) {
    for (std::size_t flat = 0; flat < space.size(); ++flat) {
      const auto hit = hooks.get(cell_dse_key(spec, scenarios, points, flat));
      if (!hit) continue;
      const Json value = Json::parse(*hit);
      const Json* cached_points = value.find("points");
      if (!cached_points || cached_points->as_array().empty()) continue;
      const Json* ensemble = cached_points->as_array()[0].find("ensemble");
      if (!ensemble) continue;
      warm.push_back(search::WarmObservation{
          flat, ensemble->number_or("mean", 0.0)});
    }
  }

  const std::string app_name = spec.app;
  const ft::FtiConfig fti = run.arch->fti();
  const int timesteps = spec.timesteps;
  const auto make_app = [&app_name, &fti, timesteps](
                            const core::Scenario& scenario,
                            const std::vector<double>& params) {
    return build_app(app_name, scenario.plan, fti, params[0], params[1],
                     timesteps);
  };
  // Engine seed: offset per cell inside run_dse_cells exactly as the
  // exhaustive sweep would; write-back stores each full-fidelity cell as
  // its single-cell dse response so later searches (and plain dse
  // clients) hit it byte-for-byte.
  core::EngineOptions engine = run.options;
  const auto evaluate =
      [&](const std::vector<core::DseCell>& cells) -> std::vector<double> {
    const std::vector<core::DsePoint> priced =
        core::run_dse_cells(space.scenarios, space.points, cells, make_app,
                            *run.arch, engine, spec.trials, sopt.threads);
    std::vector<double> values(priced.size());
    for (std::size_t i = 0; i < priced.size(); ++i) {
      values[i] = priced[i].ensemble.total.mean;
      const std::size_t cell_trials =
          cells[i].trials != 0 ? cells[i].trials : spec.trials;
      if (hooks.put && cell_trials == spec.trials) {
        const std::vector<core::DsePoint> one{priced[i]};
        hooks.put(cell_dse_key(spec, scenarios, points, cells[i].flat),
                  std::make_shared<const std::string>(
                      dse_response(one, 1, spec.trials).dump()));
      }
    }
    return values;
  };

  const search::SearchResult result =
      search::run_search(space, sopt, evaluate, warm);

  JsonObject out;
  out["best"] = search_cell_json(result.best);
  if (sopt.mode == search::Mode::kPareto) {
    JsonArray front;
    for (const search::EvaluatedCell& p : result.pareto)
      front.push_back(search_cell_json(p));
    out["pareto"] = Json(std::move(front));
  }
  if (top_k > 0) {
    // Best-k distinct cells among everything priced at full fidelity.
    std::vector<const search::EvaluatedCell*> full;
    for (const search::EvaluatedCell& h : result.history)
      if (h.trials == spec.trials) full.push_back(&h);
    std::sort(full.begin(), full.end(),
              [](const search::EvaluatedCell* a,
                 const search::EvaluatedCell* b) {
                if (a->objective != b->objective)
                  return a->objective < b->objective;
                return a->flat < b->flat;
              });
    JsonArray top;
    std::size_t taken = 0;
    std::size_t last_flat = space.size();
    for (const search::EvaluatedCell* h : full) {
      if (taken == static_cast<std::size_t>(top_k)) break;
      if (h->flat == last_flat) continue;
      top.push_back(search_cell_json(*h));
      last_flat = h->flat;
      ++taken;
    }
    out["top"] = Json(std::move(top));
  }
  out["cells"] = Json(space.size());
  out["evaluations"] = Json(result.evaluations);
  out["warm_hits"] = Json(result.warm_hits);
  out["budget_units"] = Json(result.budget_units);
  out["trial_units"] = Json(result.trial_units);
  out["method"] = Json(search::to_string(result.method_used));
  out["mode"] = Json(search::to_string(sopt.mode));
  return Json(std::move(out));
}

}  // namespace

Json handle_request(const Registry& registry, const Json& request,
                    const CacheHooks& hooks) {
  const std::string op = request.string_or("op", "");
  if (op == "predict") return op_predict(registry, request);
  if (op == "simulate") return op_simulate(registry, request);
  if (op == "inject") return op_inject(registry, request);
  if (op == "dse") return op_dse(registry, request);
  if (op == "search") return op_search(registry, request, hooks);
  throw std::invalid_argument(
      "unknown op '" + op + "' (expected predict|simulate|inject|dse|search)");
}

std::string canonical_key(const Json& request) {
  if (!request.is_object())
    throw std::invalid_argument("request must be a JSON object");
  Json stripped = request;
  stripped.as_object().erase("deadline_ms");
  stripped.as_object().erase("id");
  // Every op is bit-identical at any thread count, so requests differing
  // only in `threads` share a cache entry.
  stripped.as_object().erase("threads");
  return stripped.dump();
}

}  // namespace ftbesst::svc
