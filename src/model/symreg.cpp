#include "model/symreg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/stats.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::model {

namespace {

struct ScaledFit {
  double scale = 1.0;
  double offset = 0.0;
  double mape = std::numeric_limits<double>::infinity();
};

/// Responses preprocessed once per fit. The MAPE denominator becomes a
/// per-row multiply by a cached 1/|y| instead of a divide inside the
/// per-candidate loop, and the nonzero-response count is known up front.
/// Rows with y == 0 carry a factor of 0.0 (excluded, like the seed's
/// `continue`; a non-finite prediction on such a row degrades the MAPE to
/// infinity instead — the existing non-finite guard — which only demotes
/// candidates that were already producing garbage).
struct ResponseView {
  const std::vector<double>* y = nullptr;
  std::vector<double> inv_abs;  ///< 1/|y[i]|, or 0.0 where y[i] == 0
  std::size_t used = 0;         ///< rows with y != 0
  double sum = 0.0;             ///< sum of y (candidate-independent)
};

ResponseView make_response_view(const std::vector<double>& y) {
  ResponseView v;
  v.y = &y;
  v.inv_abs.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    v.inv_abs[i] = y[i] == 0.0 ? 0.0 : 1.0 / std::abs(y[i]);
    if (y[i] != 0.0) ++v.used;
    v.sum += y[i];
  }
  return v;
}

/// Least-squares linear scaling y ~ a*f + b, then MAPE of the scaled
/// prediction (clamped at 0) against the responses. Reductions run in two
/// independent lanes combined in a fixed order at the end — deterministic
/// (the association never depends on thread count or data), but free of
/// the serial one-accumulator dependency chain.
ScaledFit linear_scale_fit(const std::vector<double>& f,
                           const ResponseView& ry) {
  ScaledFit fit;
  const std::vector<double>& y = *ry.y;
  const std::size_t n = f.size();
  if (n == 0) return fit;
  double sf[2] = {0.0, 0.0};
  double sff[2] = {0.0, 0.0}, sfy[2] = {0.0, 0.0};
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    sf[0] += f[i];
    sf[1] += f[i + 1];
    sff[0] += f[i] * f[i];
    sff[1] += f[i + 1] * f[i + 1];
    sfy[0] += f[i] * y[i];
    sfy[1] += f[i + 1] * y[i + 1];
  }
  for (; i < n; ++i) {
    sf[0] += f[i];
    sff[0] += f[i] * f[i];
    sfy[0] += f[i] * y[i];
  }
  const double tf = sf[0] + sf[1];
  const double ty = ry.sum;
  const double tff = sff[0] + sff[1];
  const double tfy = sfy[0] + sfy[1];
  const double den = static_cast<double>(n) * tff - tf * tf;
  if (std::abs(den) > 1e-30) {
    fit.scale = (static_cast<double>(n) * tfy - tf * ty) / den;
    fit.offset = (ty - fit.scale * tf) / static_cast<double>(n);
  } else {  // constant candidate: best is the mean
    fit.scale = 0.0;
    fit.offset = ty / static_cast<double>(n);
  }
  double acc[2] = {0.0, 0.0};
  i = 0;
  for (; i + 2 <= n; i += 2) {
    acc[0] += std::abs(std::max(0.0, fit.scale * f[i] + fit.offset) - y[i]) *
              ry.inv_abs[i];
    acc[1] +=
        std::abs(std::max(0.0, fit.scale * f[i + 1] + fit.offset) - y[i + 1]) *
        ry.inv_abs[i + 1];
  }
  for (; i < n; ++i)
    acc[0] += std::abs(std::max(0.0, fit.scale * f[i] + fit.offset) - y[i]) *
              ry.inv_abs[i];
  fit.mape = ry.used
                 ? 100.0 * (acc[0] + acc[1]) / static_cast<double>(ry.used)
                 : std::numeric_limits<double>::infinity();
  if (!std::isfinite(fit.mape))
    fit.mape = std::numeric_limits<double>::infinity();
  return fit;
}

double mape_with_scaling(const ExprProgram& prog, const Dataset& data,
                         double scale, double offset, std::vector<double>& f,
                         EvalScratch& scratch) {
  if (data.empty()) return std::numeric_limits<double>::infinity();
  prog.eval_dataset(data, f, scratch);
  const std::vector<double>& ys = data.responses();
  double acc = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    const double y = ys[i];
    if (y == 0.0) continue;
    const double pred = std::max(0.0, scale * f[i] + offset);
    acc += std::abs(pred - y) / std::abs(y);
    ++used;
  }
  return used ? 100.0 * acc / static_cast<double>(used)
              : std::numeric_limits<double>::infinity();
}

}  // namespace

ExprModel::ExprModel(Expr expr, double scale, double offset,
                     std::vector<std::string> param_names)
    : expr_(std::move(expr)),
      program_(ExprProgram::compile(expr_)),
      scale_(scale),
      offset_(offset),
      names_(std::move(param_names)) {}

double ExprModel::predict(std::span<const double> params) const {
  return std::max(0.0, scale_ * expr_.eval(params) + offset_);
}

void ExprModel::predict_batch(const Dataset& data,
                              std::vector<double>& out) const {
  // Column-wise evaluation through the compiled program; the affine
  // rescale + clamp stays scalar (it is O(rows) against an O(rows * program)
  // evaluation and auto-vectorizes anyway).
  EvalScratch scratch;
  program_.eval_dataset(data, out, scratch);
  for (double& v : out) v = std::max(0.0, scale_ * v + offset_);
}

std::string ExprModel::describe() const {
  std::ostringstream os;
  os << "symreg[max(0, " << scale_ << " * " << expr_.str(names_) << " + "
     << offset_ << ")]";
  return os.str();
}

SymbolicRegressor::SymbolicRegressor(SymRegConfig config)
    : config_(config) {
  if (config_.population < 4)
    throw std::invalid_argument("population must be >= 4");
  if (config_.tournament < 1)
    throw std::invalid_argument("tournament must be >= 1");
}

SymRegResult SymbolicRegressor::fit(const Dataset& train,
                                    const Dataset& test) const {
  FTBESST_OBS_SPAN("model.symreg_fit");
  // Calibration progress: evals counts expensive compile+batch evaluations,
  // memo_hits the ones the S-expression memo avoided; best_fitness is
  // observed once per generation.  Pure observation — never touches the RNG
  // or fitness math, so obs on/off stays bit-identical.
  static const obs::Counter obs_generations = obs::counter("symreg.generations");
  static const obs::Counter obs_evals = obs::counter("symreg.evals");
  static const obs::Counter obs_memo_hits = obs::counter("symreg.memo_hits");
  static const obs::Histogram obs_best_fitness = obs::histogram(
      "symreg.best_fitness", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 10.0});
  if (train.empty()) throw std::invalid_argument("empty training set");
  util::Rng rng(config_.seed);
  const std::size_t num_vars = train.num_params();
  const ResponseView ry = make_response_view(train.responses());
  util::TaskPool& pool =
      config_.pool ? *config_.pool : util::TaskPool::shared();

  struct Individual {
    Expr expr;
    ScaledFit fit;
    double fitness = std::numeric_limits<double>::infinity();
    bool evaluated = false;
  };

  // Fitness memo across the whole run, keyed by the canonical S-expression
  // (round-trippable and structurally unique, so hits are exact — no hash
  // collision can hand an individual someone else's fitness). Crossover and
  // mutation re-create the same offspring constantly; a memo hit skips the
  // whole compile + batch-eval + scaling pipeline.
  struct Evaluated {
    ScaledFit fit;
    double fitness = 0.0;
  };
  std::unordered_map<std::string, Evaluated> memo;

  // Evaluate every not-yet-evaluated individual in `pop`: memo lookups and
  // memo insertion run serially (deterministic order), the expensive
  // compile + column-wise evaluation runs on the pool with results written
  // to per-candidate slots — bit-identical for any worker count.
  auto evaluate_population = [&](std::vector<Individual>& inds) {
    std::uint64_t memo_hits = 0;
    struct Pending {
      const Expr* expr = nullptr;
      Evaluated result;
      std::vector<std::size_t> targets;  // individuals sharing this key
    };
    std::vector<Pending> pending;
    std::vector<std::string> pending_keys;
    std::unordered_map<std::string, std::size_t> batch_index;
    for (std::size_t i = 0; i < inds.size(); ++i) {
      if (inds[i].evaluated) continue;
      std::string key = inds[i].expr.to_sexpr();
      if (const auto hit = memo.find(key); hit != memo.end()) {
        inds[i].fit = hit->second.fit;
        inds[i].fitness = hit->second.fitness;
        inds[i].evaluated = true;
        ++memo_hits;
        continue;
      }
      const auto [it, fresh] =
          batch_index.emplace(std::move(key), pending.size());
      if (fresh) {
        pending.push_back(Pending{&inds[i].expr, {}, {}});
        pending_keys.push_back(it->first);
      }
      pending[it->second].targets.push_back(i);
    }

    util::parallel_for(
        pending.size(),
        [&](std::size_t p) {
          // Reused across candidates claimed by the same worker thread.
          thread_local std::vector<double> f;
          thread_local EvalScratch scratch;
          thread_local ExprProgram prog;
          Pending& work = pending[p];
          ExprProgram::compile_into(*work.expr, prog);
          prog.eval_dataset(train, f, scratch);
          work.result.fit = linear_scale_fit(f, ry);
          work.result.fitness =
              work.result.fit.mape +
              config_.parsimony * static_cast<double>(work.expr->size());
        },
        pool);

    for (std::size_t p = 0; p < pending.size(); ++p) {
      memo.emplace(pending_keys[p], pending[p].result);
      for (std::size_t i : pending[p].targets) {
        inds[i].fit = pending[p].result.fit;
        inds[i].fitness = pending[p].result.fitness;
        inds[i].evaluated = true;
      }
    }
    if (obs::enabled()) {
      obs_evals.add(pending.size());
      obs_memo_hits.add(memo_hits);
    }
  };

  // Seed: random trees plus canonical performance-model shapes (products /
  // ratios of the parameters), which dramatically shortens the search for
  // the monomial-dominated timing surfaces we fit.
  std::vector<Individual> pop(config_.population);
  std::size_t idx = 0;
  for (std::size_t v = 0; v < num_vars && idx < pop.size(); ++v)
    pop[idx++].expr = Expr::variable(v);
  for (std::size_t a = 0; a < num_vars && idx < pop.size(); ++a)
    for (std::size_t b = 0; b < num_vars && idx + 3 < pop.size(); ++b) {
      pop[idx++].expr =
          Expr::binary(Op::kMul, Expr::variable(a), Expr::variable(b));
      pop[idx++].expr = Expr::binary(
          Op::kMul, Expr::variable(a),
          Expr::binary(Op::kMul, Expr::variable(b), Expr::variable(b)));
      pop[idx++].expr = Expr::binary(Op::kMul, Expr::variable(a),
                                     Expr::unary(Op::kLog, Expr::variable(b)));
      if (a != b)
        pop[idx++].expr =
            Expr::binary(Op::kDiv, Expr::variable(a), Expr::variable(b));
    }
  for (; idx < pop.size(); ++idx)
    pop[idx].expr = Expr::random(rng, num_vars, config_.max_depth);
  evaluate_population(pop);

  auto tournament = [&]() -> const Individual& {
    const Individual* best = &pop[rng.uniform_int(pop.size())];
    for (std::size_t i = 1; i < config_.tournament; ++i) {
      const Individual* cand = &pop[rng.uniform_int(pop.size())];
      if (cand->fitness < best->fitness) best = cand;
    }
    return *best;
  };

  SymRegResult result;
  double champion_score = std::numeric_limits<double>::infinity();
  std::vector<double> test_buf;
  EvalScratch test_scratch;

  auto consider_champion = [&](const Individual& ind, std::size_t gen) {
    double test_mape = ind.fit.mape;
    if (!test.empty()) {
      const ExprProgram prog = ExprProgram::compile(ind.expr);
      test_mape = mape_with_scaling(prog, test, ind.fit.scale, ind.fit.offset,
                                    test_buf, test_scratch);
    }
    // Champion selection blends training and held-out accuracy: test rows
    // are few, so pure test selection is noisy, and pure train selection
    // overfits. Ties favour simplicity via the parsimony term in fitness.
    const double score =
        test.empty() ? ind.fitness : 0.5 * ind.fit.mape + 0.5 * test_mape;
    if (score < champion_score) {
      champion_score = score;
      // Ship the algebraically simplified form — identical semantics,
      // readable formula.
      result.model = std::make_shared<ExprModel>(
          ind.expr.simplified(), ind.fit.scale, ind.fit.offset,
          train.param_names());
      result.train_mape = ind.fit.mape;
      result.test_mape = test.empty() ? ind.fit.mape : test_mape;
      result.generations_run = gen;
    }
  };

  for (std::size_t gen = 0; gen < config_.generations; ++gen) {
    auto best_it =
        std::min_element(pop.begin(), pop.end(),
                         [](const Individual& a, const Individual& b) {
                           return a.fitness < b.fitness;
                         });
    result.best_history.push_back(best_it->fitness);
    if (obs::enabled()) {
      obs_generations.add();
      obs_best_fitness.observe(best_it->fitness);
    }
    consider_champion(*best_it, gen);
    if (best_it->fit.mape < config_.target_train_mape) break;

    std::vector<Individual> next;
    next.reserve(pop.size());
    // Elitism: carry the best few unchanged.
    std::vector<const Individual*> ranked;
    ranked.reserve(pop.size());
    for (const auto& ind : pop) ranked.push_back(&ind);
    std::partial_sort(ranked.begin(),
                      ranked.begin() + static_cast<std::ptrdiff_t>(std::min(
                                           config_.elitism, ranked.size())),
                      ranked.end(),
                      [](const Individual* a, const Individual* b) {
                        return a->fitness < b->fitness;
                      });
    for (std::size_t e = 0; e < std::min(config_.elitism, ranked.size()); ++e) {
      Individual copy;
      copy.expr = ranked[e]->expr.clone();
      copy.fit = ranked[e]->fit;
      copy.fitness = ranked[e]->fitness;
      copy.evaluated = true;
      next.push_back(std::move(copy));
    }

    // Breeding consumes the RNG serially (selection depends only on the
    // previous generation's fitness), so the offspring set is independent
    // of the evaluation schedule; fitness happens afterwards in one batch.
    while (next.size() < pop.size()) {
      const double roll = rng.uniform();
      Individual child;
      if (roll < config_.crossover_prob) {
        child.expr = Expr::crossover(tournament().expr, tournament().expr,
                                     rng, config_.max_nodes);
      } else if (roll < config_.crossover_prob + config_.mutation_prob) {
        child.expr = Expr::mutate(tournament().expr, rng, num_vars,
                                  config_.max_depth, config_.max_nodes);
      } else {
        child.expr = tournament().expr.clone();
      }
      next.push_back(std::move(child));
    }
    evaluate_population(next);
    pop = std::move(next);
  }
  // Final population sweep.
  for (const auto& ind : pop) consider_champion(ind, config_.generations);

  return result;
}

}  // namespace ftbesst::model
