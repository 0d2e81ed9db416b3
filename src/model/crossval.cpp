#include "model/crossval.hpp"

#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::model {

CrossValReport cross_validate(const Dataset& data, const FitOptions& options,
                              std::size_t folds) {
  if (folds < 2) throw std::invalid_argument("need at least 2 folds");
  if (data.num_rows() < folds)
    throw std::invalid_argument("fewer rows than folds");
  if (options.method == ModelMethod::kTableNearest ||
      options.method == ModelMethod::kTableMultilinear ||
      options.method == ModelMethod::kTableLogLog)
    throw std::invalid_argument(
        "lookup tables are not generalizing fits; cross-validation does not "
        "apply");

  util::Rng rng(options.seed);
  std::vector<std::size_t> order(data.num_rows());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_int(i)]);

  // Folds are independent given the pre-computed shuffle and their derived
  // seeds, so they run as pool tasks writing to per-fold slots — results
  // are bit-identical for any worker count. A fold's own fit may submit
  // nested symreg fitness work; the helping task pool composes both levels
  // without oversubscription.
  std::vector<double> fold_mapes(folds, 0.0);
  util::parallel_for(folds, [&](std::size_t fold) {
    Dataset train(data.param_names());
    Dataset held(data.param_names());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Row& row = data.row(order[i]);
      (i % folds == fold ? held : train).add_row(row.params, row.samples);
    }
    FitOptions per_fold = options;
    per_fold.seed = options.seed + fold + 1;
    // Fit on the training folds only; evaluate on the held-out fold.
    // train_fraction 1.0 would starve the fitter's internal test split, so
    // we let fit_kernel_model keep its internal split of the training part.
    const FittedKernel fitted = fit_kernel_model(train, per_fold);
    // validate_mape scores the held-out fold through predict_batch, which
    // for symreg kernels is ExprProgram::eval_dataset — bit-identical to
    // Expr::eval row by row.
    fold_mapes[fold] = validate_mape(*fitted.model, held);
  });

  CrossValReport report;
  report.method = options.method;
  report.folds = folds;
  report.fold_mape = util::summarize(fold_mapes);
  return report;
}

}  // namespace ftbesst::model
