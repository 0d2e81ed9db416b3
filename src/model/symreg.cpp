#include "model/symreg.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "model/fitness_memo.hpp"
#include "obs/obs.hpp"
#include "util/stats.hpp"

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
  // memo_hits the ones the memo avoided; best_fitness is observed once per
  // generation.  Pure observation — never touches the RNG or fitness math,
  // so obs on/off stays bit-identical.
  static const obs::Counter obs_generations = obs::counter("symreg.generations");
  static const obs::Counter obs_evals = obs::counter("symreg.evals");
  static const obs::Counter obs_memo_hits = obs::counter("symreg.memo_hits");
  static const obs::Histogram obs_best_fitness = obs::histogram(
      "symreg.best_fitness", {0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 10.0});
  if (train.empty()) throw std::invalid_argument("empty training set");
  util::Rng rng(config_.seed);
  const std::size_t num_vars = train.num_params();
  const ResponseView ry = make_response_view(train.responses());

  struct Individual {
    Genome genome;
    ScaledFit fit;
    double fitness = std::numeric_limits<double>::infinity();
    bool evaluated = false;
  };

  // Fitness memo across the whole run (fitness_memo.hpp): a hit skips
  // compile + batch-eval + scaling. Only a hit on an earlier generation's
  // entry counts as symreg.memo_hits; a repeat within one generation counts
  // as neither a hit nor an eval.
  FitnessMemo memo;
  std::uint32_t generation = 0;
  ExprProgram prog;
  std::vector<double> f;
  EvalScratch scratch;

  // Evaluate every not-yet-evaluated individual in population order, on
  // this thread: at calibration sizes a compile + evaluation costs less
  // than handing it to a pool task.
  auto evaluate_population = [&](std::vector<Individual>& inds) {
    ++generation;
    std::uint64_t evals = 0;
    std::uint64_t memo_hits = 0;
    for (Individual& ind : inds) {
      if (ind.evaluated) continue;
      const auto [index, fresh] = memo.find_or_add(ind.genome);
      FitnessMemo::Entry& entry = memo[index];
      if (fresh) {
        ExprProgram::compile_into(ind.genome, prog);
        prog.eval_dataset(train, f, scratch);
        const ScaledFit fit = linear_scale_fit(f, ry);
        entry.scale = fit.scale;
        entry.offset = fit.offset;
        entry.mape = fit.mape;
        entry.generation = generation;
        ++evals;
      } else if (entry.generation != generation) {
        ++memo_hits;
      }
      ind.fit = ScaledFit{entry.scale, entry.offset, entry.mape};
      // Equal keys are equal genomes, so this is the fitness the first
      // evaluation computed, bit for bit.
      ind.fitness = entry.mape + config_.parsimony *
                                     static_cast<double>(ind.genome.size());
      ind.evaluated = true;
    }
    if (obs::enabled()) {
      obs_evals.add(evals);
      obs_memo_hits.add(memo_hits);
    }
  };

  // Seed: random trees plus canonical performance-model shapes (products /
  // ratios of the parameters), which dramatically shortens the search for
  // the monomial-dominated timing surfaces we fit.
  std::vector<Individual> pop(config_.population);
  std::size_t idx = 0;
  const auto var = [](std::size_t v) { return Expr::variable(v); };
  for (std::size_t v = 0; v < num_vars && idx < pop.size(); ++v)
    pop[idx++].genome = Genome(var(v));
  for (std::size_t a = 0; a < num_vars && idx < pop.size(); ++a)
    for (std::size_t b = 0; b < num_vars && idx + 3 < pop.size(); ++b) {
      pop[idx++].genome = Genome(Expr::binary(Op::kMul, var(a), var(b)));
      pop[idx++].genome = Genome(Expr::binary(
          Op::kMul, var(a), Expr::binary(Op::kMul, var(b), var(b))));
      pop[idx++].genome = Genome(
          Expr::binary(Op::kMul, var(a), Expr::unary(Op::kLog, var(b))));
      if (a != b)
        pop[idx++].genome = Genome(Expr::binary(Op::kDiv, var(a), var(b)));
    }
  for (; idx < pop.size(); ++idx)
    pop[idx].genome = Genome::random(rng, num_vars, config_.max_depth);
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
      const ExprProgram prog = ExprProgram::compile(ind.genome);
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
          ind.genome.to_expr().simplified(), ind.fit.scale, ind.fit.offset,
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
      next.push_back(*ranked[e]);
    }

    // Breeding consumes the RNG serially (selection depends only on the
    // previous generation's fitness), so the offspring set is independent
    // of the evaluation schedule; fitness happens afterwards in one batch.
    while (next.size() < pop.size()) {
      const double roll = rng.uniform();
      Individual child;
      if (roll < config_.crossover_prob) {
        // Donor first, in two statements: the pinned calibration outputs
        // (tests/golden) were bred in this order, and draws made inside one
        // argument list would leave the order to the compiler.
        const Genome& donor = tournament().genome;
        const Genome& parent = tournament().genome;
        child.genome = Genome::crossover(parent, donor, rng, config_.max_nodes);
      } else if (roll < config_.crossover_prob + config_.mutation_prob) {
        child.genome = Genome::mutate(tournament().genome, rng, num_vars,
                                      config_.max_depth, config_.max_nodes);
      } else {
        child.genome = tournament().genome;
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
