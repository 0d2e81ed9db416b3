#include "search/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "util/number.hpp"

namespace ftbesst::search {

namespace {

/// Acquisition stand-in for a cell whose recoverability class has no
/// observation yet (Pareto mode): huge but finite, so the local
/// penalization factor still multiplies through cleanly.
constexpr double kUnseenClassScore = 1e300;

void append_params(std::string& out, const std::vector<double>& params) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) out += ',';
    util::append_double(out, params[i]);
  }
}

void append_cell_line(std::string& out, const char* tag,
                      const EvaluatedCell& cell) {
  out += tag;
  out += ' ';
  out += std::to_string(cell.flat);
  out += ' ';
  util::append_double(out, cell.objective);
  out += ' ';
  util::append_double(out, cell.recoverability);
  out += ' ';
  append_params(out, cell.params);
  out += ' ';
  out += cell.scenario;  // may contain spaces; keep it last on the line
  out += '\n';
}

struct GpState {
  const SearchSpace& space;
  const SearchOptions& options;
  const Evaluator& evaluate;
  const std::vector<double>& recov;  ///< per-scenario recoverability
  core::DseBudget& budget;
  model::Matrix x;                   ///< encoded cells, row = flat
  SearchResult result;
  std::vector<std::ptrdiff_t> seen;  ///< flat -> history index, -1 unseen

  GpState(const SearchSpace& space_in, const SearchOptions& options_in,
          const Evaluator& evaluate_in, const std::vector<double>& recov_in,
          core::DseBudget& budget_in)
      : space(space_in),
        options(options_in),
        evaluate(evaluate_in),
        recov(recov_in),
        budget(budget_in),
        x(encode_cells(space_in)),
        seen(space_in.size(), -1) {}

  void add_history(std::size_t flat, double objective, std::size_t trials,
                   bool warm) {
    EvaluatedCell cell;
    cell.flat = flat;
    cell.scenario = space.scenarios[space.scenario_of(flat)].name;
    cell.params = space.points[space.point_of(flat)];
    cell.objective = objective;
    cell.recoverability = recov[space.scenario_of(flat)];
    cell.trials = trials;
    cell.warm = warm;
    seen[flat] = static_cast<std::ptrdiff_t>(result.history.size());
    result.history.push_back(std::move(cell));
  }

  [[nodiscard]] std::size_t affordable() const {
    return static_cast<std::size_t>(budget.remaining() /
                                    static_cast<double>(options.trials));
  }

  void evaluate_flats(const std::vector<std::size_t>& flats) {
    std::vector<core::DseCell> cells(flats.size());
    for (std::size_t i = 0; i < flats.size(); ++i)
      cells[i] = core::DseCell{flats[i], options.trials};
    const std::vector<double> values = evaluate(cells);
    if (values.size() != flats.size())
      throw std::logic_error("search evaluator returned wrong count");
    const double units = static_cast<double>(flats.size()) *
                         static_cast<double>(options.trials);
    budget.charge(units);
    result.trial_units += units;
    result.evaluations += flats.size();
    for (std::size_t i = 0; i < flats.size(); ++i)
      add_history(flats[i], values[i], options.trials, false);
  }

  void row(std::size_t flat, std::vector<double>& buf) const {
    buf.resize(x.cols());
    for (std::size_t c = 0; c < x.cols(); ++c) buf[c] = x.at(flat, c);
  }
};

void shuffle_in_place(std::vector<std::size_t>& v, util::Rng rng) {
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    const std::size_t j = i + rng.uniform_int(v.size() - i);
    std::swap(v[i], v[j]);
  }
}

/// Stratified space-filling init: per-scenario shuffles interleaved
/// round-robin, so every scenario (hence every recoverability class) gets
/// observed as early as the budget allows.
std::vector<std::size_t> init_design(GpState& st, util::Rng& rng,
                                     std::size_t count) {
  std::vector<std::vector<std::size_t>> per(st.space.scenarios.size());
  for (std::size_t flat = 0; flat < st.space.size(); ++flat)
    if (st.seen[flat] < 0) per[st.space.scenario_of(flat)].push_back(flat);
  for (std::size_t s = 0; s < per.size(); ++s)
    shuffle_in_place(per[s], rng.split(1 + s));
  std::vector<std::size_t> picks;
  for (std::size_t idx = 0; picks.size() < count; ++idx) {
    bool any = false;
    for (std::size_t s = 0; s < per.size() && picks.size() < count; ++s) {
      if (idx < per[s].size()) {
        picks.push_back(per[s][idx]);
        any = true;
      }
    }
    if (!any) break;
  }
  return picks;
}

SearchResult run_gp(const SearchSpace& space, const SearchOptions& options,
                    const Evaluator& evaluate,
                    const std::vector<WarmObservation>& warm,
                    core::DseBudget& budget,
                    const std::vector<double>& recov) {
  GpState st(space, options, evaluate, recov, budget);
  st.result.method_used = Method::kGp;
  util::Rng rng(options.seed);

  // Warm starts: known full-fidelity objectives, sorted by flat index for
  // a deterministic history, not charged against the budget.
  std::vector<WarmObservation> ws = warm;
  std::sort(ws.begin(), ws.end(),
            [](const WarmObservation& a, const WarmObservation& b) {
              return a.flat < b.flat;
            });
  for (const WarmObservation& w : ws) {
    if (w.flat >= space.size() || st.seen[w.flat] >= 0) continue;
    st.add_history(w.flat, w.objective, options.trials, true);
    ++st.result.warm_hits;
  }

  if (st.affordable() == 0 && st.result.history.empty()) {
    // The smallest fraction whose budget, as fraction_of computes it,
    // covers one cell at the requested trials.
    const double cell_units = static_cast<double>(options.trials);
    double fraction = 1.0 / static_cast<double>(space.size());
    while (core::DseBudget::fraction_of(space.size(), options.trials, fraction)
               .total() < cell_units)
      fraction = std::nextafter(fraction, 2.0);
    throw std::invalid_argument(
        "search budget cannot afford a single evaluation: one cell costs " +
        util::format_double(cell_units) + " units at " +
        std::to_string(options.trials) + " trials, the budget has " +
        util::format_double(budget.remaining()) + " units; the smallest " +
        "--budget-frac (budget_fraction) that affords one cell of this " +
        std::to_string(space.size()) + "-cell space is " +
        util::format_double(fraction));
  }

  // Initial design.
  {
    const std::size_t e = st.affordable();
    std::size_t count = options.init != 0 ? options.init
                                          : std::max<std::size_t>(e / 3, 1);
    count = std::min(count, e);
    const std::vector<std::size_t> picks = init_design(st, rng, count);
    if (!picks.empty()) st.evaluate_flats(picks);
  }

  // Acquisition rounds.
  std::vector<double> buf, sel_row;
  for (std::size_t round = 0; st.affordable() > 0; ++round) {
    std::vector<std::size_t> cand;
    for (std::size_t flat = 0; flat < space.size(); ++flat)
      if (st.seen[flat] < 0) cand.push_back(flat);
    if (cand.empty()) break;

    GpSurrogate gp(options.gp);
    bool gp_ok = true;
    try {
      model::Matrix xt(st.result.history.size(), st.x.cols());
      std::vector<double> y(st.result.history.size());
      for (std::size_t i = 0; i < st.result.history.size(); ++i) {
        const EvaluatedCell& h = st.result.history[i];
        for (std::size_t c = 0; c < st.x.cols(); ++c)
          xt.at(i, c) = st.x.at(h.flat, c);
        y[i] = h.objective;
      }
      gp.fit(xt, y);
    } catch (const std::exception&) {
      gp_ok = false;  // PSD guard gave up; fall back to random picks
    }

    const std::size_t batch =
        std::min({options.batch, st.affordable(), cand.size()});
    std::vector<std::size_t> picks;
    if (!gp_ok) {
      std::vector<std::size_t> shuffled = cand;
      shuffle_in_place(shuffled, rng.split(1000 + round));
      picks.assign(shuffled.begin(), shuffled.begin() + batch);
    } else {
      // Incumbents: global minimum, and per-recoverability-class minima
      // for the Pareto acquisition.
      double best_single = std::numeric_limits<double>::infinity();
      std::map<double, double> class_best;
      for (const EvaluatedCell& h : st.result.history) {
        best_single = std::min(best_single, h.objective);
        const auto [it, inserted] =
            class_best.try_emplace(h.recoverability, h.objective);
        if (!inserted && h.objective < it->second) it->second = h.objective;
      }

      // Score candidates: expected improvement against the relevant
      // incumbent, posterior variance as tie-breaker, flat index last.
      // Pareto mode normalizes EI by the class incumbent: absolute EI
      // hands the whole budget to whichever class has the worst incumbent
      // (it has the most room to improve in seconds), starving the cheap
      // classes whose minima the front needs resolved bit-exactly.
      struct Score {
        double primary;
        double secondary;
      };
      std::vector<Score> scores(cand.size());
      for (std::size_t i = 0; i < cand.size(); ++i) {
        st.row(cand[i], buf);
        const GpSurrogate::Posterior post = gp.predict(buf);
        double incumbent = best_single;
        if (options.mode == Mode::kPareto) {
          const auto it =
              class_best.find(recov[space.scenario_of(cand[i])]);
          if (it == class_best.end()) {
            scores[i] = {kUnseenClassScore, post.variance};
            continue;
          }
          incumbent = it->second;
        }
        double ei = gp.expected_improvement(buf, incumbent);
        if (options.mode == Mode::kPareto)
          ei /= std::max(std::abs(incumbent), 1e-12);
        scores[i] = {ei, post.variance};
      }

      // Greedy batch with kernel-based local penalization: each selected
      // cell suppresses the acquisition of its kernel neighbourhood so a
      // batch spreads out instead of piling onto one optimum.
      std::vector<char> taken(cand.size(), 0);
      for (std::size_t k = 0; k < batch; ++k) {
        std::size_t pick = cand.size();
        for (std::size_t i = 0; i < cand.size(); ++i) {
          if (taken[i]) continue;
          if (pick == cand.size() ||
              scores[i].primary > scores[pick].primary ||
              (scores[i].primary == scores[pick].primary &&
               (scores[i].secondary > scores[pick].secondary ||
                (scores[i].secondary == scores[pick].secondary &&
                 cand[i] < cand[pick]))))
            pick = i;
        }
        taken[pick] = 1;
        picks.push_back(cand[pick]);
        if (k + 1 == batch) break;
        st.row(cand[pick], sel_row);
        for (std::size_t j = 0; j < cand.size(); ++j) {
          if (taken[j]) continue;
          st.row(cand[j], buf);
          double penalty =
              1.0 - gp.kernel(sel_row, buf) / options.gp.signal_variance;
          penalty = std::clamp(penalty, 0.0, 1.0);
          scores[j].primary *= penalty;
          scores[j].secondary *= penalty;
        }
      }
    }
    st.evaluate_flats(picks);
  }
  return std::move(st.result);
}

SearchResult run_bandit(const SearchSpace& space, const SearchOptions& options,
                        const Evaluator& evaluate, core::DseBudget& budget,
                        const std::vector<double>& recov) {
  util::Rng rng(options.seed);
  const BanditResult br = run_successive_halving(
      space.size(), options.trials, budget, options.bandit, rng.split(2),
      evaluate);
  SearchResult r;
  r.method_used = Method::kBandit;
  for (const BanditOutcome& o : br.history) {
    EvaluatedCell cell;
    cell.flat = o.flat;
    cell.scenario = space.scenarios[space.scenario_of(o.flat)].name;
    cell.params = space.points[space.point_of(o.flat)];
    cell.objective = o.value;
    cell.recoverability = recov[space.scenario_of(o.flat)];
    cell.trials = o.trials;
    r.history.push_back(std::move(cell));
  }
  r.evaluations = br.history.size();
  r.trial_units = br.trial_units;
  r.best.flat = br.best;
  r.best.scenario = space.scenarios[space.scenario_of(br.best)].name;
  r.best.params = space.points[space.point_of(br.best)];
  r.best.objective = br.best_value;
  r.best.recoverability = recov[space.scenario_of(br.best)];
  r.best.trials = options.trials;
  return r;
}

}  // namespace

std::string to_string(Method method) {
  switch (method) {
    case Method::kAuto: return "auto";
    case Method::kGp: return "gp";
    case Method::kBandit: return "bandit";
  }
  return "?";
}

std::string to_string(Mode mode) {
  return mode == Mode::kSingle ? "single" : "pareto";
}

SearchResult run_search(const SearchSpace& space, const SearchOptions& options,
                        const Evaluator& evaluate,
                        const std::vector<WarmObservation>& warm) {
  space.validate();
  if (!evaluate) throw std::invalid_argument("search evaluator is required");
  if (options.trials == 0)
    throw std::invalid_argument("search trials must be >= 1");
  if (options.batch == 0)
    throw std::invalid_argument("search batch must be >= 1");
  if (options.budget_units <= 0.0 && options.budget_fraction <= 0.0)
    throw std::invalid_argument("search budget must be positive");

  Method method = options.method;
  if (method == Method::kAuto) {
    // The GP pays O(n^3) per fit; past a couple thousand cells the
    // halving bandit's linear rungs win. Pareto mode needs the surrogate.
    method = (options.mode == Mode::kPareto || space.size() <= 2048)
                 ? Method::kGp
                 : Method::kBandit;
  }
  if (method == Method::kBandit && options.mode == Mode::kPareto)
    throw std::invalid_argument(
        "bandit engine is single-objective; use the GP for Pareto mode");

  core::DseBudget budget =
      options.budget_units > 0.0
          ? core::DseBudget(options.budget_units)
          : core::DseBudget::fraction_of(space.size(), options.trials,
                                         options.budget_fraction);

  std::vector<double> recov(space.scenarios.size());
  for (std::size_t s = 0; s < space.scenarios.size(); ++s)
    recov[s] = recoverability_score(space.scenarios[s].plan, options.fti);

  SearchResult result =
      method == Method::kGp
          ? run_gp(space, options, evaluate, warm, budget, recov)
          : run_bandit(space, options, evaluate, budget, recov);
  result.budget_units = budget.total();

  // Incumbent and, in Pareto mode, the non-dominated set over everything
  // priced at full fidelity.
  const EvaluatedCell* best = nullptr;
  for (const EvaluatedCell& h : result.history) {
    if (h.trials != options.trials) continue;
    if (!best || h.objective < best->objective ||
        (h.objective == best->objective && h.flat < best->flat))
      best = &h;
  }
  if (best) result.best = *best;
  if (options.mode == Mode::kPareto) {
    std::vector<ParetoPoint> pts;
    for (const EvaluatedCell& h : result.history)
      if (h.trials == options.trials)
        pts.push_back(ParetoPoint{h.flat, h.objective, h.recoverability});
    const std::vector<ParetoPoint> front = pareto_front(std::move(pts));
    result.pareto.clear();
    for (const ParetoPoint& p : front) {
      for (const EvaluatedCell& h : result.history) {
        if (h.flat == p.flat && h.trials == options.trials) {
          result.pareto.push_back(h);
          break;
        }
      }
    }
  }
  return result;
}

SearchResult run_search_dse(
    const SearchSpace& space, const SearchOptions& options,
    const std::function<core::AppBEO(const core::Scenario&,
                                     const std::vector<double>&)>& make_app,
    const core::ArchBEO& arch, const core::EngineOptions& engine) {
  return run_search(
      space, options, [&](const std::vector<core::DseCell>& cells) {
        const std::vector<core::DsePoint> points = core::run_dse_cells(
            space.scenarios, space.points, cells, make_app, arch, engine,
            options.trials, options.threads);
        std::vector<double> out(points.size());
        for (std::size_t i = 0; i < points.size(); ++i)
          out[i] = points[i].ensemble.total.mean;
        return out;
      });
}

std::string SearchResult::to_text() const {
  std::string out = "ftbesst-search v1\n";
  out += "method " + to_string(method_used) + '\n';
  out += "evaluations " + std::to_string(evaluations) + '\n';
  out += "warm_hits " + std::to_string(warm_hits) + '\n';
  out += "budget_units ";
  util::append_double(out, budget_units);
  out += '\n';
  out += "trial_units ";
  util::append_double(out, trial_units);
  out += '\n';
  append_cell_line(out, "best", best);
  out += "pareto " + std::to_string(pareto.size()) + '\n';
  for (const EvaluatedCell& p : pareto) append_cell_line(out, "front", p);
  out += "history " + std::to_string(history.size()) + '\n';
  for (const EvaluatedCell& h : history) {
    out += "eval ";
    out += std::to_string(h.flat);
    out += ' ';
    out += std::to_string(h.trials);
    out += h.warm ? " warm " : " cold ";
    util::append_double(out, h.objective);
    out += '\n';
  }
  return out;
}

}  // namespace ftbesst::search
