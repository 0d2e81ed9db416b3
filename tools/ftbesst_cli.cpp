// ftbesst — command-line driver for the FT-BESST workflow.
//
//   ftbesst calibrate --out DIR [--samples N] [--seed S]
//       Run the Table II benchmarking campaign on the bundled Quartz-like
//       testbed and write one calibration CSV per kernel.
//
//   ftbesst fit --data FILE.csv --out FILE.model
//       [--method auto|symreg|features|table] [--seed S]
//       Fit a performance model to a calibration CSV (Model Development)
//       and save it; prints the validation report.
//
//   ftbesst predict --model FILE.model --params a,b[,c...]
//       Evaluate a saved model at a parameter point.
//
//   ftbesst simulate --models DIR --epr E --ranks R
//       [--timesteps T] [--plan L1:40,L2:40] [--trials N] [--seed S]
//       [--mtbf-hours H [--downtime S]]
//       Full-system LULESH_FTI simulation (Co-Design) using saved models;
//       optional fault injection.
//
//   ftbesst faultlog --log FILE.csv --nodes N
//       Estimate a fault model (MTBF, Weibull shape, node-loss fraction)
//       from an observed failure log (CSV: time_seconds,node,kind with
//       kind in {loss,crash}) and recommend a plan at that rate.
//
//   ftbesst inject --scenario FILE.scenario [--trials N] [--threads T]
//       [--engine des|bsp] [--seed S] [--faultlog FILE] [--faultlog-csv F]
//       [--replay FILE [--trial K]]
//       In-simulation fault-injection campaign (paper Cases 1/2) on a
//       .scenario machine/application description: N trials varying only
//       the fault schedule, makespan distribution + per-level recovery
//       statistics. --faultlog dumps the campaign's fault records in the
//       replayable `ftbesst-faultlog v1` text format (--faultlog-csv as
//       CSV); --replay re-runs one recorded trial's schedule exactly
//       (--trial selects it, default 0).
//
//   ftbesst plan --node-mtbf-hours H --nodes N [--work-hours W]
//       [--soft-fraction P] [--low-cost C1] [--high-cost C4] ...
//       Recommend a two-level checkpoint plan (closed-form optimizer).
//
//   ftbesst crossval --data FILE.csv [--folds 5] [--seed S]
//       K-fold cross-validation of the regression methods on a calibration
//       CSV; prints per-method held-out MAPE distributions.
//
//   ftbesst run-experiment --config FILE.ini
//       Self-contained experiment from an INI description: calibrate on the
//       bundled testbed, fit models, simulate, report (see
//       examples/experiment.ini for the schema).
//
//   ftbesst serve --socket PATH [--tcp-port P] [--models DIR]
//       [--queue-capacity N] [--cache-mb M] [--cache-ttl S] [--deadline-ms D]
//       [--workers N [--readers R] [--proxy-threads T] [--vnodes V]]
//       Long-running prediction daemon: loads (or calibrates) the models
//       once, then serves predict/simulate/dse requests over a
//       length-prefixed JSON protocol with a sharded result cache and
//       explicit overload rejection. SIGTERM/SIGINT drain gracefully.
//       With --workers N the daemon becomes the horizontally scaled tier:
//       a consistent-hash router fronting N worker processes (`ftbesst
//       worker`), each owning one shard of the cache on its own unix
//       socket. The models are calibrated/loaded ONCE and persisted next to
//       the socket so every worker warm-starts from disk instead of
//       re-fitting. Dead workers are respawned and re-warmed from the
//       router's response journal.
//
//   ftbesst serve --rolling-restart 1 (--socket PATH | --tcp-port P)
//       Control verb: ask a *running* tier to restart its workers one at a
//       time with warm-cache handoff; prints the router's reply.
//
//   ftbesst worker --socket PATH (--models DIR | --analytic 1) [--name N]
//       [--queue-capacity N] [--cache-mb M] [--read-deadline-ms D]
//       One tier worker shard (normally spawned by `serve --workers`, but
//       runnable standalone). --analytic serves the cheap deterministic
//       test registry — what the tier tests and bench_ext_tier use.
//
//   ftbesst client (--socket PATH | --tcp-port P) [--request JSON]
//       [--timeout S]
//       Send one request (from --request or stdin) to a running daemon and
//       print the reply JSON; exits 0 on ok, 1 on an error reply.
//
//   ftbesst search [--models DIR] [--app lulesh|stencil3d]
//       [--scenarios "name=plan;name=plan"] [--eprs A,B|--nxs A,B]
//       [--ranks A,B] [--timesteps T] [--trials N] [--seed S]
//       [--mtbf-hours H] [--downtime D] [--budget U | --budget-frac F]
//       [--method auto|gp|bandit] [--mode single|pareto] [--batch B]
//       [--init I] [--top-k K]
//       Budget-aware guided search (src/search) over the same
//       {scenario x point} grid `dse` sweeps exhaustively: GP surrogate +
//       expected improvement (or successive halving) under a trial-unit
//       budget, default 10% of the exhaustive cost. Prints the search-op
//       response JSON (best cell, Pareto front in pareto mode, evaluation
//       history).
//
//   ftbesst verify [--differential N [--dump DIR]] [--fuzz ITERS]
//       [--corpus DIR [--update 1] [--threads-check 0|1]]
//       [--search-corpus DIR [--budget-frac F]]
//       [--fold-corpus DIR [--max-unfolded-ranks R]] [--seed S]
//       Verification harness (docs/TESTING.md): cross-engine differential
//       checking over N generated scenarios (failures are shrunk and, with
//       --dump, written as .scenario reproducers), in-process structure-
//       aware fuzzing of the json/wire/plan/model parsers, and byte-exact
//       golden-corpus replay (--update 1 re-records the .expected files).
//       --fold-corpus prices each corpus entry through run_des with
//       symmetry folding on and off and requires byte-identical
//       predictions (entries above --max-unfolded-ranks run folded only).
//       --search-corpus replays the search_*.scenario golden machines
//       through the search_vs_exhaustive leg (guided search must hit the
//       exhaustive optimum and cover its Pareto front within the budget,
//       bit-identically across thread counts).
//       Exits 1 on any disagreement, fuzz bug, or corpus mismatch.
//
// All file formats are the plain-text ones from model/serialize.hpp.

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>

#include "apps/kernels.hpp"
#include "apps/lulesh.hpp"
#include "apps/testbed.hpp"
#include "core/arch.hpp"
#include "core/montecarlo.hpp"
#include "core/workflow.hpp"
#include "ft/checkpoint_cost.hpp"
#include "ft/fault_log.hpp"
#include "ft/multilevel_opt.hpp"
#include "ft/young_daly.hpp"
#include "model/crossval.hpp"
#include "model/fitting.hpp"
#include "model/serialize.hpp"
#include "apps/stencil3d.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "inject/campaign.hpp"
#include "svc/client.hpp"
#include "svc/registry.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"
#include "util/args.hpp"
#include "util/config.hpp"
#include "verify/corpus.hpp"
#include "verify/differential.hpp"
#include "verify/fuzz.hpp"
#include "verify/scenario.hpp"
#include "verify/search_check.hpp"

using namespace ftbesst;

namespace {

int usage() {
  std::cerr << "usage: ftbesst "
               "<calibrate|fit|predict|simulate|inject|search|serve|worker|"
               "client|verify> [flags]\n"
               "every command also accepts --obs-out DIR (write metrics.json,\n"
               "trace.json, summary.txt from the observability layer)\n"
               "see the header of tools/ftbesst_cli.cpp or README.md\n";
  return 2;
}

int cmd_calibrate(const util::ArgParser& args) {
  args.expect_known({"out", "group-size", "node-size", "machine-seed",
                     "samples", "seed", "obs-out"});
  const std::string out_dir = args.get_string("out", ".");
  ft::FtiConfig fti;
  fti.group_size = static_cast<int>(args.get_int("group-size", 4));
  fti.node_size = static_cast<int>(args.get_int("node-size", 2));
  apps::QuartzTestbed testbed({}, fti,
                              static_cast<std::uint64_t>(
                                  args.get_int("machine-seed", 0x9a27)));
  apps::CampaignSpec spec;
  spec.samples_per_point = static_cast<int>(args.get_int("samples", 10));
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));
  const std::vector<std::string> kernels{
      apps::kLuleshTimestep, "ckpt_l1", "ckpt_l2", "ckpt_l3", "ckpt_l4"};
  const auto datasets = apps::run_campaign(testbed, spec, kernels);
  for (const auto& [kernel, data] : datasets) {
    const std::string path = out_dir + "/" + kernel + ".csv";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "cannot write " << path << "\n";
      return 1;
    }
    model::save_dataset(os, data);
    std::cout << "wrote " << path << " (" << data.num_rows() << " points x "
              << spec.samples_per_point << " samples)\n";
  }
  return 0;
}

int cmd_fit(const util::ArgParser& args) {
  args.expect_known({"data", "out", "method", "seed", "obs-out"});
  const auto data_path = args.get("data");
  const auto out_path = args.get("out");
  if (!data_path || !out_path) return usage();
  std::ifstream is(*data_path);
  if (!is) {
    std::cerr << "cannot read " << *data_path << "\n";
    return 1;
  }
  const model::Dataset data = model::load_dataset(is);

  model::FitOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const std::string method = args.get_string("method", "auto");
  if (method == "auto") opt.method = model::ModelMethod::kAuto;
  else if (method == "symreg") opt.method = model::ModelMethod::kSymbolicRegression;
  else if (method == "features") opt.method = model::ModelMethod::kFeatureRegression;
  else if (method == "table") opt.method = model::ModelMethod::kTableMultilinear;
  else {
    std::cerr << "unknown --method " << method << "\n";
    return 2;
  }
  const auto fitted = model::fit_kernel_model(data, opt);
  std::cout << "method:         " << model::to_string(fitted.report.chosen)
            << "\nformula:        " << fitted.report.formula
            << "\ntrain MAPE:     " << fitted.report.train_mape << "%"
            << "\ntest MAPE:      " << fitted.report.test_mape << "%"
            << "\nfull MAPE:      " << fitted.report.full_mape << "%"
            << "\nresidual sigma: " << fitted.report.residual_sigma << "\n";
  if (fitted.report.chosen == model::ModelMethod::kTableMultilinear ||
      fitted.report.chosen == model::ModelMethod::kTableNearest) {
    std::cerr << "note: table models are rebuilt from the CSV, not saved\n";
    return 0;
  }
  std::ofstream os(*out_path);
  if (!os) {
    std::cerr << "cannot write " << *out_path << "\n";
    return 1;
  }
  model::save_model(os, *fitted.noisy_model);
  std::cout << "wrote " << *out_path << "\n";
  return 0;
}

int cmd_predict(const util::ArgParser& args) {
  args.expect_known({"model", "params", "obs-out"});
  const auto model_path = args.get("model");
  const auto params_text = args.get("params");
  if (!model_path || !params_text) return usage();
  std::ifstream is(*model_path);
  if (!is) {
    std::cerr << "cannot read " << *model_path << "\n";
    return 1;
  }
  const auto model = model::load_model(is);
  std::vector<double> point;
  for (const std::string& v : util::ArgParser::split_list(*params_text))
    point.push_back(std::stod(v));
  std::cout << model->predict(point) << "\n";
  return 0;
}

int cmd_simulate(const util::ArgParser& args) {
  args.expect_known({"models", "epr", "ranks", "timesteps", "trials",
                     "group-size", "node-size", "plan", "seed", "mtbf-hours",
                     "downtime", "obs-out"});
  const auto models_dir = args.get("models");
  if (!models_dir) return usage();
  const int epr = static_cast<int>(args.get_int("epr", 15));
  const std::int64_t ranks = args.get_int("ranks", 64);
  const int timesteps = static_cast<int>(args.get_int("timesteps", 200));
  const std::size_t trials =
      static_cast<std::size_t>(args.get_int("trials", 20));

  apps::LuleshConfig cfg;
  cfg.epr = epr;
  cfg.ranks = ranks;
  cfg.timesteps = timesteps;
  cfg.fti.group_size = static_cast<int>(args.get_int("group-size", 4));
  cfg.fti.node_size = static_cast<int>(args.get_int("node-size", 2));
  if (const auto plan = args.get("plan")) cfg.plan = core::parse_plan(*plan);

  auto topo = std::make_shared<net::TwoStageFatTree>(94, 32, 24);
  core::ArchBEO arch("quartz", topo, net::CommParams{}, 36);
  arch.set_fti(cfg.fti);

  auto load = [&](const std::string& kernel) {
    const std::string path = *models_dir + "/" + kernel + ".model";
    std::ifstream is(path);
    if (!is)
      throw std::invalid_argument("missing model file " + path +
                                  " (run `ftbesst fit` first)");
    arch.bind_kernel(kernel, model::load_model(is));
  };
  load(apps::kLuleshTimestep);
  for (const auto& entry : cfg.plan)
    load(apps::checkpoint_kernel(entry.level));

  core::EngineOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (args.has("mtbf-hours")) {
    opt.inject_faults = true;
    opt.downtime_seconds = args.get_double("downtime", 10.0);
    arch.set_fault_process(
        ft::FaultProcess(args.get_double("mtbf-hours", 24.0) * 3600.0, 1.0));
    ft::CheckpointCostModel cost({}, cfg.fti);
    for (const auto& entry : cfg.plan)
      arch.bind_restart(entry.level,
                        std::make_shared<model::ConstantModel>(
                            cost.restart_cost(entry.level,
                                              apps::lulesh_checkpoint_bytes(epr),
                                              ranks)));
  }

  const core::AppBEO app = apps::build_lulesh_fti(cfg);
  const auto ens = core::run_ensemble(app, arch, opt, trials);
  std::cout << "runtime mean:   " << ens.total.mean << " s\n"
            << "runtime stddev: " << ens.total.stddev << " s\n"
            << "runtime min:    " << ens.total.min << " s\n"
            << "runtime max:    " << ens.total.max << " s\n";
  if (opt.inject_faults)
    std::cout << "mean faults:    " << ens.mean_faults << "\n"
              << "mean rollbacks: " << ens.mean_rollbacks << "\n"
              << "full restarts:  " << ens.mean_full_restarts << "\n";
  return 0;
}

int cmd_faultlog(const util::ArgParser& args) {
  args.expect_known({"log", "nodes", "obs-out"});
  const auto log_path = args.get("log");
  if (!log_path) return usage();
  std::ifstream is(*log_path);
  if (!is) {
    std::cerr << "cannot read " << *log_path << "\n";
    return 1;
  }
  std::vector<ft::FaultEvent> events;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string time_s, node_s, kind_s;
    if (!std::getline(ls, time_s, ',') || !std::getline(ls, node_s, ',') ||
        !std::getline(ls, kind_s))
      throw std::invalid_argument("bad fault-log line: " + line);
    ft::FaultEvent ev;
    ev.time = std::stod(time_s);
    ev.node = std::stoll(node_s);
    ev.kind = kind_s == "crash" ? ft::FailureKind::kProcessCrash
                                : ft::FailureKind::kNodeLoss;
    events.push_back(ev);
  }
  const auto nodes = args.get_int("nodes", 1);
  const ft::FaultModelEstimate est = ft::estimate_fault_model(events, nodes);
  std::cout << "events:             " << est.events << "\n"
            << "system MTBF:        " << est.system_mtbf << " s\n"
            << "node MTBF:          " << est.node_mtbf << " s ("
            << est.node_mtbf / 3600.0 << " h)\n"
            << "Weibull shape:      " << est.weibull_shape
            << (est.weibull_shape < 0.95   ? " (bursty)"
                : est.weibull_shape > 1.05 ? " (regular)"
                                           : " (~exponential)")
            << "\n"
            << "node-loss fraction: " << est.node_loss_fraction << "\n";
  return 0;
}

int cmd_inject(const util::ArgParser& args) {
  args.expect_known({"scenario", "trials", "threads", "engine", "seed",
                     "faultlog", "faultlog-csv", "replay", "trial",
                     "obs-out"});
  const auto scenario_path = args.get("scenario");
  if (!scenario_path) return usage();
  std::ifstream is(*scenario_path);
  if (!is) {
    std::cerr << "cannot read " << *scenario_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const verify::Scenario scenario = verify::Scenario::from_text(buffer.str());
  verify::BuiltScenario built = verify::build(scenario);
  built.options.inject_faults = true;
  if (args.has("seed"))
    built.options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  inject::CampaignOptions opt;
  opt.trials = static_cast<std::size_t>(args.get_int("trials", 32));
  opt.threads = static_cast<unsigned>(args.get_int("threads", 0));
  const std::string engine = args.get_string("engine", "des");
  if (engine == "des") opt.use_des = true;
  else if (engine == "bsp") opt.use_des = false;
  else {
    std::cerr << "unknown --engine " << engine << " (expected des|bsp)\n";
    return 2;
  }

  if (const auto replay_path = args.get("replay")) {
    // Replay one recorded trial's fault schedule verbatim: deterministic,
    // so a single trial reproduces the recorded run exactly.
    std::ifstream rs(*replay_path);
    if (!rs) {
      std::cerr << "cannot read " << *replay_path << "\n";
      return 1;
    }
    std::ostringstream rb;
    rb << rs.rdbuf();
    const ft::FaultLog log = ft::FaultLog::from_text(rb.str());
    const auto trial = args.get_int("trial", 0);
    built.options.fault_trace = log.to_trace(trial);
    opt.trials = 1;
    std::cout << "replaying trial " << trial << " ("
              << built.options.fault_trace.size() << " fault(s)) from "
              << *replay_path << "\n";
  }
  opt.engine = built.options;

  const inject::CampaignResult res =
      inject::run_campaign(built.app, built.arch, opt);
  std::cout << "trials:          " << res.totals.size() << "\n"
            << "makespan mean:   " << res.total.mean << " s\n"
            << "makespan stddev: " << res.total.stddev << " s\n"
            << "makespan p10:    " << res.p10 << " s\n"
            << "makespan p50:    " << res.p50 << " s\n"
            << "makespan p90:    " << res.p90 << " s\n"
            << "mean faults:     " << res.mean_faults << "\n"
            << "mean rollbacks:  " << res.mean_rollbacks << "\n"
            << "full restarts:   " << res.mean_full_restarts << "\n"
            << "mean lost work:  " << res.mean_lost_work << " s\n";
  for (int level = 1; level <= 4; ++level)
    if (res.mean_recoveries_by_level[level - 1] > 0.0)
      std::cout << "  L" << level << " recoveries:  "
                << res.mean_recoveries_by_level[level - 1] << "\n";
  if (res.incomplete_trials > 0)
    std::cout << "incomplete:      " << res.incomplete_trials
              << " trial(s) hit the horizon\n";

  if (const auto out_path = args.get("faultlog")) {
    std::ofstream os(*out_path, std::ios::binary);
    if (!os) {
      std::cerr << "cannot write " << *out_path << "\n";
      return 1;
    }
    os << res.fault_log.to_text();
    std::cout << "wrote " << *out_path << " (" << res.fault_log.size()
              << " fault record(s), replayable with --replay)\n";
  }
  if (const auto csv_path = args.get("faultlog-csv")) {
    std::ofstream os(*csv_path, std::ios::binary);
    if (!os) {
      std::cerr << "cannot write " << *csv_path << "\n";
      return 1;
    }
    res.fault_log.write_csv(os);
    std::cout << "wrote " << *csv_path << "\n";
  }
  return 0;
}

int cmd_plan(const util::ArgParser& args) {
  args.expect_known({"work-hours", "node-mtbf-hours", "nodes", "soft-fraction",
                     "downtime", "low-cost", "low-restart", "high-cost",
                     "high-restart", "obs-out"});
  // Recommend a two-level checkpoint plan for a machine description.
  ft::MultilevelWorkload w;
  w.work = args.get_double("work-hours", 10.0) * 3600.0;
  const double node_mtbf = args.get_double("node-mtbf-hours", 24.0) * 3600.0;
  const auto nodes = args.get_int("nodes", 256);
  w.system_mtbf = node_mtbf / static_cast<double>(nodes);
  w.soft_fraction = args.get_double("soft-fraction", 0.8);
  w.downtime = args.get_double("downtime", 60.0);

  ft::LevelSpec low{ft::Level::kL1, args.get_double("low-cost", 1.0),
                    args.get_double("low-restart", 1.0)};
  ft::LevelSpec high{ft::Level::kL4, args.get_double("high-cost", 30.0),
                     args.get_double("high-restart", 60.0)};
  const ft::TwoLevelPlan plan = ft::optimize_two_level(w, low, high);
  if (!std::isfinite(plan.expected_runtime)) {
    std::cerr << "no viable plan: the machine thrashes at this fault rate\n";
    return 1;
  }
  std::cout << "system MTBF:        " << w.system_mtbf << " s\n"
            << "optimal L1 period:  " << plan.tau_low << " s of work\n"
            << "optimal L4 period:  " << plan.tau_high << " s of work\n"
            << "expected runtime:   " << plan.expected_runtime << " s ("
            << 100.0 * plan.overhead_fraction << "% overhead)\n"
            << "Young (L4-only):    "
            << ft::young_interval(high.checkpoint_cost, w.system_mtbf)
            << " s\n";
  return 0;
}

int cmd_crossval(const util::ArgParser& args) {
  args.expect_known({"data", "folds", "seed", "obs-out"});
  const auto data_path = args.get("data");
  if (!data_path) return usage();
  std::ifstream is(*data_path);
  if (!is) {
    std::cerr << "cannot read " << *data_path << "\n";
    return 1;
  }
  const model::Dataset data = model::load_dataset(is);
  const auto folds = static_cast<std::size_t>(args.get_int("folds", 5));
  for (model::ModelMethod method :
       {model::ModelMethod::kFeatureRegression,
        model::ModelMethod::kSymbolicRegression}) {
    model::FitOptions opt;
    opt.method = method;
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    const auto report = model::cross_validate(data, opt, folds);
    std::cout << model::to_string(method) << ": held-out MAPE mean "
              << report.fold_mape.mean << "% (min " << report.fold_mape.min
              << "%, max " << report.fold_mape.max << "%, " << folds
              << " folds)\n";
  }
  return 0;
}

int cmd_run_experiment(const util::ArgParser& args) {
  args.expect_known({"config", "obs-out"});
  const auto config_path = args.get("config");
  if (!config_path) return usage();
  std::ifstream is(*config_path);
  if (!is) {
    std::cerr << "cannot read " << *config_path << "\n";
    return 1;
  }
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const util::Config cfg = util::Config::parse(buffer.str());

  // --- observability (optional [obs] section) ---
  const std::string obs_out = cfg.get_string("obs", "out", "");
  if (cfg.get_bool("obs", "enabled", false) || !obs_out.empty())
    obs::enable(true);

  // --- machine & FTI ---
  ft::FtiConfig fti;
  fti.group_size = static_cast<int>(cfg.get_int("machine", "group_size", 4));
  fti.node_size = static_cast<int>(cfg.get_int("machine", "node_size", 2));
  apps::QuartzTestbed testbed(
      {}, fti,
      static_cast<std::uint64_t>(cfg.get_int("machine", "machine_seed",
                                             0x9a27)));
  auto topo = std::make_shared<net::TwoStageFatTree>(
      cfg.get_int("machine", "leaves", 94),
      cfg.get_int("machine", "nodes_per_leaf", 32),
      cfg.get_int("machine", "spines", 24));
  net::CommParams comm;
  comm.bandwidth = cfg.get_double("machine", "bandwidth", 12.5e9);
  core::ArchBEO arch("machine", topo, comm,
                     static_cast<int>(
                         cfg.get_int("machine", "ranks_per_node", 36)));
  arch.set_fti(fti);

  // --- checkpoint plan ---
  std::vector<ft::PlanEntry> plan;
  for (const std::string& key : cfg.keys("plan")) {
    if (key.size() < 2 || (key[0] != 'L' && key[0] != 'l'))
      throw std::invalid_argument("[plan] keys must be L1..L4, got " + key);
    const int level = std::stoi(key.substr(1));
    plan.push_back({static_cast<ft::Level>(level),
                    static_cast<int>(cfg.get_int("plan", key, 40))});
  }

  // --- application ---
  const std::string app_name = cfg.get_string("experiment", "app", "lulesh");
  const auto ranks = cfg.get_int("experiment", "ranks", 64);
  const int timesteps =
      static_cast<int>(cfg.get_int("experiment", "timesteps", 200));
  std::vector<std::string> kernels;
  std::optional<core::AppBEO> app;
  if (app_name == "lulesh") {
    apps::LuleshConfig lc;
    lc.epr = static_cast<int>(cfg.get_int("experiment", "epr", 15));
    lc.ranks = ranks;
    lc.timesteps = timesteps;
    lc.plan = plan;
    lc.fti = fti;
    app.emplace(apps::build_lulesh_fti(lc));
    kernels.push_back(apps::kLuleshTimestep);
  } else if (app_name == "stencil3d") {
    apps::Stencil3dConfig sc;
    sc.nx = static_cast<int>(cfg.get_int("experiment", "nx", 32));
    sc.ranks = ranks;
    sc.sweeps = timesteps;
    sc.plan = plan;
    sc.fti = fti;
    app.emplace(apps::build_stencil3d(sc));
    kernels.push_back(apps::kStencilSweep);
  } else {
    throw std::invalid_argument("[experiment] app must be lulesh|stencil3d");
  }
  for (const auto& entry : plan)
    kernels.push_back(apps::checkpoint_kernel(entry.level));

  // --- calibrate + model ---
  apps::CampaignSpec spec;
  spec.samples_per_point =
      static_cast<int>(cfg.get_int("machine", "samples", 10));
  spec.seed = static_cast<std::uint64_t>(
      cfg.get_int("experiment", "seed", 2021));
  const auto calibration = apps::run_campaign(testbed, spec, kernels);
  model::FitOptions fit;
  fit.seed = spec.seed;
  const core::ModelSuite suite = core::develop_models(calibration, fit);
  suite.bind_into(arch);
  std::cout << "models:\n";
  for (const auto& report : suite.reports)
    std::cout << "  " << report.kernel << ": MAPE "
              << report.fit.full_mape << "% ("
              << model::to_string(report.fit.chosen) << ")\n";

  // --- faults ---
  core::EngineOptions opt;
  opt.seed = spec.seed ^ 0x5151;
  if (cfg.get_bool("faults", "enabled", false)) {
    opt.inject_faults = true;
    opt.downtime_seconds = cfg.get_double("faults", "downtime", 10.0);
    arch.set_fault_process(ft::FaultProcess(
        cfg.get_double("faults", "node_mtbf_hours", 24.0) * 3600.0,
        cfg.get_double("faults", "node_loss_fraction", 1.0)));
    ft::CheckpointCostModel cost({}, fti);
    for (const auto& entry : plan)
      arch.bind_restart(
          entry.level,
          std::make_shared<model::ConstantModel>(cost.restart_cost(
              entry.level, app->checkpoint_bytes_per_rank(), ranks)));
  }

  // --- simulate ---
  const auto trials =
      static_cast<std::size_t>(cfg.get_int("experiment", "trials", 20));
  const auto ens = core::run_ensemble(*app, arch, opt, trials);
  std::cout << "runtime mean:   " << ens.total.mean << " s\n"
            << "runtime stddev: " << ens.total.stddev << " s\n"
            << "runtime p10/p90: " << util::quantile(ens.totals, 0.1) << " / "
            << util::quantile(ens.totals, 0.9) << " s\n";
  if (opt.inject_faults)
    std::cout << "mean faults:    " << ens.mean_faults << "\n"
              << "mean rollbacks: " << ens.mean_rollbacks << "\n"
              << "full restarts:  " << ens.mean_full_restarts << "\n";
  if (!obs_out.empty()) {
    if (obs::write_output_dir(obs_out))
      std::cerr << "obs: wrote metrics.json, trace.json, summary.txt to "
                << obs_out << "\n";
    else
      std::cerr << "obs: failed to write " << obs_out << "\n";
  }
  return 0;
}

// argv[0] for respawnable worker processes: the running binary itself, so a
// tier started from a build tree respawns the exact same build.
std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ftbesst";  // PATH-resolved fallback
  buf[n] = '\0';
  return std::string(buf);
}

std::shared_ptr<const svc::Registry> build_registry(
    const util::ArgParser& args) {
  if (args.get_int("analytic", 0) != 0)
    return std::make_shared<const svc::Registry>(svc::Registry::analytic());
  svc::RegistryOptions reg_opt;
  reg_opt.models_dir = args.get_string("models", "");
  reg_opt.samples = static_cast<int>(args.get_int("samples", 5));
  reg_opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 2021));
  reg_opt.fti.group_size = static_cast<int>(args.get_int("group-size", 4));
  reg_opt.fti.node_size = static_cast<int>(args.get_int("node-size", 2));
  std::cerr << (reg_opt.models_dir.empty()
                    ? "calibrating models on the bundled testbed...\n"
                    : "loading models from " + reg_opt.models_dir + "\n");
  auto registry =
      std::make_shared<const svc::Registry>(svc::Registry::open(reg_opt));
  for (const auto& report : registry->reports())
    std::cerr << "  " << report.kernel << ": MAPE " << report.fit.full_mape
              << "% (" << model::to_string(report.fit.chosen) << ")\n";
  return registry;
}

int cmd_worker(const util::ArgParser& args) {
  args.expect_known({"socket", "name", "models", "analytic", "samples",
                     "seed", "group-size", "node-size", "queue-capacity",
                     "cache-mb", "cache-ttl", "cache-shards", "deadline-ms",
                     "read-deadline-ms", "obs-out"});
  // A worker is a Server on its own unix socket; the slowloris guard
  // defaults on, since its only legitimate client is the router.
  svc::ServerOptions opt;
  opt.unix_socket_path = args.get_string("socket", "");
  if (opt.unix_socket_path.empty()) {
    std::cerr << "worker needs --socket PATH\n";
    return 2;
  }
  opt.name = args.get_string("name", "worker");
  opt.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  opt.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  opt.read_deadline_ms = args.get_double("read-deadline-ms", 30000.0);
  opt.cache.max_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 64)) << 20;
  opt.cache.ttl_seconds = args.get_double("cache-ttl", 0.0);
  opt.cache.shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));

  svc::Server worker(build_registry(args), opt);
  worker.start();
  svc::Server::install_signal_handlers(&worker);
  std::cerr << "worker " << opt.name << " serving unix:"
            << opt.unix_socket_path << "\n";
  worker.wait();
  svc::Server::install_signal_handlers(nullptr);
  return 0;
}

int cmd_serve_tier(const util::ArgParser& args, std::size_t workers) {
  const std::string socket = args.get_string("socket", "");
  if (socket.empty()) {
    std::cerr << "serve --workers needs --socket PATH (worker shard sockets "
                 "derive from it)\n";
    return 2;
  }
  const bool analytic = args.get_int("analytic", 0) != 0;

  // Calibrate-once warm start: whatever registry this process built gets
  // persisted next to the socket, and every worker (re)spawn loads it from
  // disk instead of re-fitting. Analytic registries are free to rebuild, so
  // they skip the disk round trip.
  std::string worker_models = args.get_string("models", "");
  if (!analytic && worker_models.empty()) {
    auto registry = build_registry(args);
    worker_models = socket + ".models";
    const std::size_t written = registry->save_models(worker_models);
    std::cerr << "persisted " << written << " models to " << worker_models
              << " for worker warm start\n";
  }

  svc::RouterOptions opt;
  opt.unix_socket_path = socket;
  opt.tcp_port = static_cast<int>(args.get_int("tcp-port", -1));
  opt.readers = static_cast<std::size_t>(args.get_int("readers", 2));
  opt.proxy_threads =
      static_cast<std::size_t>(args.get_int("proxy-threads", 16));
  opt.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 256));
  opt.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  opt.read_deadline_ms = args.get_double("read-deadline-ms", 30000.0);
  opt.vnodes = static_cast<std::size_t>(args.get_int("vnodes", 128));

  const std::string exe = self_exe_path();
  for (std::size_t i = 0; i < workers; ++i) {
    svc::WorkerSpec spec;
    spec.socket_path = socket + ".w" + std::to_string(i);
    spec.spawn_argv = {exe,
                       "worker",
                       "--socket",
                       spec.socket_path,
                       "--name",
                       "worker-" + std::to_string(i),
                       "--queue-capacity",
                       std::to_string(args.get_int("queue-capacity", 64)),
                       "--cache-mb",
                       std::to_string(args.get_int("cache-mb", 64))};
    if (analytic) {
      spec.spawn_argv.insert(spec.spawn_argv.end(), {"--analytic", "1"});
    } else {
      spec.spawn_argv.insert(spec.spawn_argv.end(),
                             {"--models", worker_models});
    }
    opt.workers.push_back(std::move(spec));
  }

  svc::Router router(std::move(opt));
  router.start();
  svc::Router::install_signal_handlers(&router);
  std::cerr << "tier router on unix:" << socket;
  if (router.tcp_port() >= 0)
    std::cerr << " and 127.0.0.1:" << router.tcp_port();
  std::cerr << " fronting " << workers << " workers\n";
  if (router.wait_healthy(120.0))
    std::cerr << "ready (all workers healthy)\n";
  else
    std::cerr << "warning: some workers still unhealthy after 120 s\n";
  router.wait();
  svc::Router::install_signal_handlers(nullptr);
  const auto stats = router.stats();
  std::cerr << "drained: " << stats.completed << " completed, " << stats.routed
            << " routed, " << stats.coalesced << " coalesced, "
            << stats.respawns << " respawns, " << stats.journal_replayed
            << " journal entries replayed\n";
  return 0;
}

int cmd_serve(const util::ArgParser& args) {
  args.expect_known({"socket", "tcp-port", "models", "analytic", "samples",
                     "seed", "group-size", "node-size", "queue-capacity",
                     "cache-mb", "cache-ttl", "cache-shards", "deadline-ms",
                     "read-deadline-ms", "workers", "readers",
                     "proxy-threads", "vnodes", "rolling-restart", "timeout",
                     "obs-out"});

  if (args.get_int("rolling-restart", 0) != 0) {
    // Control verb against a *running* tier, not a new daemon.
    const std::string socket = args.get_string("socket", "");
    const auto tcp_port = args.get_int("tcp-port", -1);
    if (socket.empty() && tcp_port < 0) {
      std::cerr << "serve --rolling-restart needs --socket or --tcp-port of "
                   "the running tier\n";
      return 2;
    }
    const double timeout = args.get_double("timeout", 600.0);
    svc::Client client =
        socket.empty()
            ? svc::Client::connect_tcp(static_cast<int>(tcp_port), timeout)
            : svc::Client::connect_unix(socket, timeout);
    const svc::ClientResponse response =
        client.call(svc::Json::parse("{\"op\":\"rolling_restart\"}"));
    std::cout << response.raw << "\n";
    return response.ok ? 0 : 1;
  }

  if (const auto workers = args.get_int("workers", 0); workers > 0)
    return cmd_serve_tier(args, static_cast<std::size_t>(workers));

  svc::ServerOptions srv_opt;
  srv_opt.unix_socket_path = args.get_string("socket", "");
  srv_opt.tcp_port = static_cast<int>(args.get_int("tcp-port", -1));
  srv_opt.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue-capacity", 64));
  srv_opt.default_deadline_ms = args.get_double("deadline-ms", 0.0);
  srv_opt.read_deadline_ms = args.get_double("read-deadline-ms", 0.0);
  srv_opt.cache.max_bytes =
      static_cast<std::size_t>(args.get_int("cache-mb", 64)) << 20;
  srv_opt.cache.ttl_seconds = args.get_double("cache-ttl", 0.0);
  srv_opt.cache.shards =
      static_cast<std::size_t>(args.get_int("cache-shards", 8));

  svc::Server server(build_registry(args), srv_opt);
  server.start();
  svc::Server::install_signal_handlers(&server);
  if (!srv_opt.unix_socket_path.empty())
    std::cerr << "listening on unix:" << srv_opt.unix_socket_path << "\n";
  if (server.tcp_port() >= 0)
    std::cerr << "listening on 127.0.0.1:" << server.tcp_port() << "\n";
  std::cerr << "ready\n";
  server.wait();
  svc::Server::install_signal_handlers(nullptr);
  const auto stats = server.stats();
  std::cerr << "drained: " << stats.completed << " completed, "
            << stats.cache.hits << " cache hits, " << stats.rejected_overload
            << " overload rejections\n";
  return 0;
}

int cmd_client(const util::ArgParser& args) {
  args.expect_known({"socket", "tcp-port", "request", "timeout", "obs-out"});
  const std::string socket_path = args.get_string("socket", "");
  const auto tcp_port = args.get_int("tcp-port", -1);
  if (socket_path.empty() && tcp_port < 0) {
    std::cerr << "client needs --socket PATH or --tcp-port P\n";
    return 2;
  }
  std::string request_text = args.get_string("request", "");
  if (request_text.empty()) {
    std::ostringstream buffer;
    buffer << std::cin.rdbuf();
    request_text = buffer.str();
  }
  // Validate locally so a typo fails with a parse offset instead of a
  // round-trip.
  const svc::Json request = svc::Json::parse(request_text);

  const double timeout = args.get_double("timeout", 60.0);
  svc::Client client =
      socket_path.empty()
          ? svc::Client::connect_tcp(static_cast<int>(tcp_port), timeout)
          : svc::Client::connect_unix(socket_path, timeout);
  const svc::ClientResponse response = client.call(request);
  std::cout << response.raw << "\n";
  return response.ok ? 0 : 1;
}

int cmd_search(const util::ArgParser& args) {
  args.expect_known({"models", "app", "scenarios", "eprs", "nxs", "ranks",
                     "timesteps", "trials", "seed", "mtbf-hours", "downtime",
                     "budget", "budget-frac", "method", "mode", "batch",
                     "init", "top-k", "samples", "obs-out"});
  svc::RegistryOptions reg_opt;
  reg_opt.models_dir = args.get_string("models", "");
  reg_opt.samples = static_cast<int>(args.get_int("samples", 5));
  std::cerr << (reg_opt.models_dir.empty()
                    ? "calibrating models on the bundled testbed...\n"
                    : "loading models from " + reg_opt.models_dir + "\n");
  const svc::Registry registry = svc::Registry::open(reg_opt);

  auto number = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return std::string(buf);
  };
  auto quoted = [](const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  };
  auto number_list = [&](const std::string& text) {
    std::string out = "[";
    bool first = true;
    for (const std::string& v : util::ArgParser::split_list(text)) {
      if (!first) out += ',';
      first = false;
      out += number(std::strtod(v.c_str(), nullptr));
    }
    return out + "]";
  };

  std::string req = "{\"op\":\"search\"";
  const std::string app = args.get_string("app", "lulesh");
  req += ",\"app\":" + quoted(app);
  req += ",\"timesteps\":" +
         std::to_string(args.get_int("timesteps", 100));
  req += ",\"trials\":" + std::to_string(args.get_int("trials", 8));
  req += ",\"seed\":" + std::to_string(args.get_int("seed", 42));
  req += ",\"mtbf_hours\":" + number(args.get_double("mtbf-hours", 0.0));
  req += ",\"downtime\":" + number(args.get_double("downtime", 10.0));

  // "name=plan;name=plan" (';' because plans contain commas).
  const std::string scen_text =
      args.get_string("scenarios", "noft=;daly=L1:40");
  req += ",\"scenarios\":[";
  bool first = true;
  std::size_t start = 0;
  while (start <= scen_text.size()) {
    std::size_t end = scen_text.find(';', start);
    if (end == std::string::npos) end = scen_text.size();
    const std::string item = scen_text.substr(start, end - start);
    start = end + 1;
    if (item.empty() && start > scen_text.size()) break;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("bad --scenarios entry '" + item +
                                  "' (expected name=plan)");
    if (!first) req += ',';
    first = false;
    req += "{\"name\":" + quoted(item.substr(0, eq)) +
           ",\"plan\":" + quoted(item.substr(eq + 1)) + "}";
  }
  req += "]";

  const char* size_flag = app == "lulesh" ? "eprs" : "nxs";
  req += ",\"" + std::string(size_flag) + "\":" +
         number_list(args.get_string(size_flag,
                                     app == "lulesh" ? "8,12,16" : "32,48"));
  req += ",\"ranks\":" + number_list(args.get_string("ranks", "8,64"));

  if (args.has("budget"))
    req += ",\"budget\":" + number(args.get_double("budget", 0.0));
  req += ",\"budget_fraction\":" +
         number(args.get_double("budget-frac", 0.10));
  req += ",\"method\":" + quoted(args.get_string("method", "auto"));
  req += ",\"mode\":" + quoted(args.get_string("mode", "single"));
  req += ",\"batch\":" + std::to_string(args.get_int("batch", 4));
  req += ",\"init\":" + std::to_string(args.get_int("init", 0));
  req += ",\"top_k\":" + std::to_string(args.get_int("top-k", 0));
  req += "}";

  const svc::Json result =
      svc::handle_request(registry, svc::Json::parse(req));
  std::cout << result.dump() << "\n";
  return 0;
}

int cmd_verify(const util::ArgParser& args) {
  args.expect_known({"differential", "seed", "dump", "fuzz", "corpus",
                     "update", "threads-check", "fold-corpus",
                     "max-unfolded-ranks", "search-corpus", "budget-frac",
                     "obs-out"});
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  bool ran_anything = false;
  int rc = 0;

  if (args.has("differential")) {
    ran_anything = true;
    const int n = static_cast<int>(args.get_int("differential", 200));
    const verify::DiffReport report =
        verify::run_differential(n, seed, {}, args.get_string("dump", ""));
    std::cout << report.summary();
    if (!report.ok()) rc = 1;
  }

  if (args.has("fuzz")) {
    ran_anything = true;
    const auto iters = static_cast<std::uint64_t>(args.get_int("fuzz", 2000));
    for (const verify::FuzzResult& r : verify::fuzz_all(seed, iters)) {
      std::cout << r.summary() << "\n";
      if (!r.ok()) rc = 1;
    }
  }

  if (const auto corpus_dir = args.get("corpus")) {
    ran_anything = true;
    if (args.get_int("update", 0) != 0) {
      const int n = verify::record_corpus(*corpus_dir);
      std::cout << "recorded " << n << " corpus entr"
                << (n == 1 ? "y" : "ies") << " in " << *corpus_dir << "\n";
    } else {
      const verify::CorpusReport report = verify::replay_corpus(
          *corpus_dir, args.get_int("threads-check", 1) != 0);
      std::cout << report.summary();
      if (!report.ok()) rc = 1;
    }
  }

  if (const auto fold_dir = args.get("fold-corpus")) {
    ran_anything = true;
    const verify::CorpusReport report = verify::replay_corpus_folded(
        *fold_dir, args.get_int("max-unfolded-ranks", 1 << 16));
    std::cout << "fold-" << report.summary();
    if (!report.ok()) rc = 1;
  }

  if (const auto search_dir = args.get("search-corpus")) {
    ran_anything = true;
    const verify::DiffReport report = verify::run_search_corpus(
        *search_dir, args.get_double("budget-frac", 0.10));
    std::cout << "search-" << report.summary();
    if (!report.ok()) rc = 1;
  }

  if (!ran_anything) {
    std::cerr << "verify needs at least one of --differential N, --fuzz "
                 "ITERS, --corpus DIR, --fold-corpus DIR, "
                 "--search-corpus DIR\n";
    return 2;
  }
  return rc;
}

int dispatch(const std::string& command, const util::ArgParser& args) {
  if (command == "calibrate") return cmd_calibrate(args);
  if (command == "fit") return cmd_fit(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "simulate") return cmd_simulate(args);
  if (command == "crossval") return cmd_crossval(args);
  if (command == "plan") return cmd_plan(args);
  if (command == "faultlog") return cmd_faultlog(args);
  if (command == "inject") return cmd_inject(args);
  if (command == "run-experiment") return cmd_run_experiment(args);
  if (command == "search") return cmd_search(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "worker") return cmd_worker(args);
  if (command == "client") return cmd_client(args);
  if (command == "verify") return cmd_verify(args);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    const util::ArgParser args(argc - 1, argv + 1);
    // --obs-out enables the observability layer for the whole command and
    // dumps its artifacts at the end.  stdout carries the command's parsed
    // output, so the note goes to stderr.
    const auto obs_out = args.get("obs-out");
    if (obs_out) obs::enable(true);
    const int rc = dispatch(command, args);
    if (obs_out) {
      if (obs::write_output_dir(*obs_out))
        std::cerr << "obs: wrote metrics.json, trace.json, summary.txt to "
                  << *obs_out << "\n";
      else
        std::cerr << "obs: failed to write " << *obs_out << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
