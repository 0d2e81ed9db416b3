// Extension bench: guided search vs the exhaustive DSE sweep, as
// machine-readable JSON.
//
// Replays every `search_*.scenario` golden-corpus machine through
// verify::derive_search_grid and prices its co-design grid twice: the
// exhaustive core::run_dse sweep, and the GP-guided Pareto search at 10%
// of the sweep's trial budget (threads 1 and pool). Per machine it
// reports the grid size, evaluations charged, the evaluation fraction,
// wall-clocks for both paths, and the gate verdicts:
//   - thread_bit_identical: SearchResult::to_text() at threads=1 equals
//     the pooled run byte-for-byte
//   - within_budget: charged evaluations <= ceil(0.10 x cells) and
//     charged trial units never exceed the granted budget
//   - optimum_found: the search's best objective is bit-equal to the
//     exhaustive grid minimum (identical per-cell seeds make this an
//     exact comparison)
//   - pareto_dominates: the searched front dominates-or-equals the
//     exhaustive {overhead x recoverability} front
//   - bandit_keeps_best (deterministic machines only): successive halving
//     at full budget also lands on the exhaustive optimum bit-exactly
//
// Exit 1 (GATE line on stderr) when any machine fails any gate.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/workflow.hpp"
#include "search/pareto.hpp"
#include "search/search.hpp"
#include "svc/json.hpp"
#include "verify/scenario.hpp"
#include "verify/search_check.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

struct MachineRun {
  std::string name;
  std::size_t cells = 0;
  std::size_t evaluations = 0;
  double eval_fraction = 0.0;
  double exhaustive_wall = 0.0;
  double search_wall = 0.0;
  std::size_t front_size = 0;
  bool deterministic = false;
  bool thread_bit_identical = false;
  bool within_budget = false;
  bool optimum_found = false;
  bool pareto_dominates = false;
  bool bandit_keeps_best = true;  ///< vacuous for stochastic machines

  [[nodiscard]] bool pass() const {
    return thread_bit_identical && within_budget && optimum_found &&
           pareto_dominates && bandit_keeps_best;
  }

  [[nodiscard]] svc::JsonObject gates() const {
    return {{"thread_bit_identical", thread_bit_identical},
            {"within_budget", within_budget},
            {"optimum_found", optimum_found},
            {"pareto_dominates", pareto_dominates},
            {"bandit_keeps_best", bandit_keeps_best}};
  }
};

MachineRun run_machine(const std::string& name, const verify::Scenario& s,
                       double budget_fraction) {
  MachineRun run;
  run.name = name;
  run.deterministic =
      !s.monte_carlo && !s.inject_faults && s.noise_sigma == 0.0;

  const verify::SearchGrid g = verify::derive_search_grid(s);
  run.cells = g.space.size();

  auto start = Clock::now();
  const std::vector<core::DsePoint> exhaustive = core::run_dse(
      g.space.scenarios, g.space.points, g.make_app, g.arch, g.options,
      static_cast<std::size_t>(s.trials));
  run.exhaustive_wall = seconds_since(start);

  double best_mean = std::numeric_limits<double>::infinity();
  std::vector<search::ParetoPoint> all;
  all.reserve(run.cells);
  for (std::size_t flat = 0; flat < run.cells; ++flat) {
    const double mean = exhaustive[flat].ensemble.total.mean;
    best_mean = std::min(best_mean, mean);
    all.push_back(search::ParetoPoint{
        flat, mean,
        search::recoverability_score(
            g.space.scenarios[g.space.scenario_of(flat)].plan, s.fti)});
  }
  const std::vector<search::ParetoPoint> exhaustive_front =
      search::pareto_front(all);

  search::SearchOptions opt;
  opt.method = search::Method::kGp;
  opt.mode = search::Mode::kPareto;
  opt.seed = s.seed;
  opt.trials = static_cast<std::size_t>(s.trials);
  opt.budget_fraction = budget_fraction;
  opt.fti = s.fti;
  opt.batch = 1;  // sequential acquisition, as the verify leg runs it
  opt.threads = 1;
  start = Clock::now();
  const search::SearchResult serial =
      search::run_search_dse(g.space, opt, g.make_app, g.arch, g.options);
  run.search_wall = seconds_since(start);
  opt.threads = 0;
  const search::SearchResult pooled =
      search::run_search_dse(g.space, opt, g.make_app, g.arch, g.options);

  run.evaluations = serial.evaluations;
  run.eval_fraction =
      static_cast<double>(serial.evaluations) / static_cast<double>(run.cells);
  run.front_size = serial.pareto.size();
  run.thread_bit_identical = serial.to_text() == pooled.to_text();
  const double max_evals = std::ceil(
      budget_fraction * static_cast<double>(run.cells));
  run.within_budget =
      static_cast<double>(serial.evaluations) <= max_evals &&
      serial.trial_units <= serial.budget_units;
  run.optimum_found = bits_equal(serial.best.objective, best_mean);

  std::vector<search::ParetoPoint> searched;
  searched.reserve(serial.pareto.size());
  for (const search::EvaluatedCell& c : serial.pareto)
    searched.push_back(
        search::ParetoPoint{c.flat, c.objective, c.recoverability});
  run.pareto_dominates =
      search::front_dominates_or_equals(searched, exhaustive_front);

  if (run.deterministic) {
    search::SearchOptions bopt;
    bopt.method = search::Method::kBandit;
    bopt.mode = search::Mode::kSingle;
    bopt.seed = s.seed;
    bopt.trials = static_cast<std::size_t>(s.trials);
    bopt.budget_fraction = 1.0;
    bopt.fti = s.fti;
    bopt.threads = 1;
    const search::SearchResult bandit =
        search::run_search_dse(g.space, bopt, g.make_app, g.arch, g.options);
    run.bandit_keeps_best = bits_equal(bandit.best.objective, best_mean);
  }
  return run;
}

}  // namespace

int main() {
  const double budget_fraction = 0.10;
  const std::filesystem::path dir = FTBESST_CORPUS_DIR;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("search_", 0) == 0 &&
        entry.path().extension() == ".scenario")
      files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    std::cerr << "GATE: no search_*.scenario machines in " << dir << "\n";
    return 1;
  }

  std::vector<MachineRun> runs;
  for (const auto& path : files)
    runs.push_back(run_machine(path.stem().string(),
                               verify::Scenario::from_file(path.string()),
                               budget_fraction));

  bool all_pass = true;
  svc::JsonObject machines;
  for (const MachineRun& r : runs) {
    all_pass &= r.pass();
    svc::JsonObject gates = r.gates();
    gates["pass"] = r.pass();
    machines[r.name] = svc::JsonObject{
        {"cells", r.cells},
        {"evaluations", r.evaluations},
        {"eval_fraction", r.eval_fraction},
        {"front_size", r.front_size},
        {"exhaustive_wall_sec", r.exhaustive_wall},
        {"search_wall_sec", r.search_wall},
        {"deterministic", r.deterministic},
        {"gates", std::move(gates)}};
  }
  const svc::Json report = svc::JsonObject{
      {"budget_fraction", budget_fraction},
      {"machines", std::move(machines)},
      {"gates", svc::JsonObject{{"eval_fraction_max", budget_fraction},
                                {"pass", all_pass}}}};
  std::cout << report.dump() << "\n";

  if (!all_pass) {
    for (const MachineRun& r : runs)
      if (!r.pass())
        std::cerr << "GATE: " << r.name << " fails "
                  << svc::Json(r.gates()).dump() << "\n";
    return 1;
  }
  return 0;
}
