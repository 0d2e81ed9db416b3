#include "model/fitting.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "model/powerlaw.hpp"
#include "util/stats.hpp"

namespace ftbesst::model {

std::string to_string(ModelMethod m) {
  switch (m) {
    case ModelMethod::kSymbolicRegression: return "symbolic-regression";
    case ModelMethod::kFeatureRegression: return "feature-regression";
    case ModelMethod::kPowerLaw: return "power-law";
    case ModelMethod::kTableNearest: return "table-nearest";
    case ModelMethod::kTableMultilinear: return "table-multilinear";
    case ModelMethod::kTableLogLog: return "table-loglog";
    case ModelMethod::kAuto: return "auto";
  }
  return "?";
}

double validate_mape(const PerfModel& model, const Dataset& data) {
  // predict_batch routes ExprModel through the compiled column-wise path
  // (bit-identical to per-row predict by contract);
  // FeatureModel batches its per-row feature evaluation; other models fall
  // back to the per-row loop.
  std::vector<double> predicted;
  model.predict_batch(data, predicted);
  return util::mape_percent(data.responses(), predicted);
}

double residual_log_sigma(const PerfModel& model, const Dataset& data) {
  std::vector<double> predicted;
  model.predict_batch(data, predicted);
  std::vector<double> logs;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    const double pred = predicted[i];
    if (pred <= 0.0) continue;
    for (double s : data.row(i).samples)
      if (s > 0.0) logs.push_back(std::log(s / pred));
  }
  return util::sample_stddev(logs);
}

namespace {

struct Candidate {
  PerfModelPtr model;
  ModelMethod method = ModelMethod::kAuto;
  double train_mape = 0.0;
  double test_mape = 0.0;
};

Candidate fit_symreg(const Dataset& train, const Dataset& test,
                     const FitOptions& options) {
  SymRegConfig cfg = options.symreg;
  cfg.seed = cfg.seed ^ options.seed;
  const SymbolicRegressor regressor(cfg);
  const SymRegResult res = regressor.fit(train, test);
  return Candidate{res.model, ModelMethod::kSymbolicRegression,
                   res.train_mape, res.test_mape};
}

Candidate fit_features(const Dataset& train, const Dataset& test,
                       const FitOptions& options) {
  auto lib = FeatureLibrary::polynomial(train.num_params());
  auto model = std::make_shared<FeatureModel>(
      FeatureModel::fit(train, std::move(lib), options.ridge_lambda));
  Candidate c;
  c.train_mape = validate_mape(*model, train);
  c.test_mape = test.empty() ? c.train_mape : validate_mape(*model, test);
  c.model = std::move(model);
  c.method = ModelMethod::kFeatureRegression;
  return c;
}

Candidate fit_powerlaw(const Dataset& train, const Dataset& test) {
  auto model = std::make_shared<PowerLawModel>(PowerLawModel::fit(train));
  Candidate c;
  c.train_mape = validate_mape(*model, train);
  c.test_mape = test.empty() ? c.train_mape : validate_mape(*model, test);
  c.model = std::move(model);
  c.method = ModelMethod::kPowerLaw;
  return c;
}

Candidate fit_table(const Dataset& data, Interpolation interp,
                    const Dataset& test) {
  auto model = std::make_shared<TableModel>(data, interp);
  Candidate c;
  c.train_mape = validate_mape(*model, data);
  c.test_mape = test.empty() ? c.train_mape : validate_mape(*model, test);
  c.model = std::move(model);
  c.method = interp == Interpolation::kNearest ? ModelMethod::kTableNearest
             : interp == Interpolation::kLogLog ? ModelMethod::kTableLogLog
                                                : ModelMethod::kTableMultilinear;
  return c;
}

}  // namespace

FittedKernel fit_kernel_model(const Dataset& data, const FitOptions& options) {
  if (data.empty()) throw std::invalid_argument("empty dataset");
  util::Rng rng(options.seed);
  const auto [train, test] = data.num_rows() >= 4
                                 ? data.split(options.train_fraction, rng)
                                 : std::pair<Dataset, Dataset>{data, data};

  Candidate chosen;
  switch (options.method) {
    case ModelMethod::kSymbolicRegression:
      chosen = fit_symreg(train, test, options);
      break;
    case ModelMethod::kFeatureRegression:
      chosen = fit_features(train, test, options);
      break;
    case ModelMethod::kPowerLaw:
      chosen = fit_powerlaw(train, test);
      break;
    case ModelMethod::kTableNearest:
      // Tables are built from the full dataset; they are lookup structures,
      // not generalizing fits, so no split is withheld.
      chosen = fit_table(data, Interpolation::kNearest, Dataset{data.param_names()});
      break;
    case ModelMethod::kTableMultilinear:
      chosen = fit_table(data, Interpolation::kMultilinear,
                         Dataset{data.param_names()});
      break;
    case ModelMethod::kTableLogLog:
      chosen = fit_table(data, Interpolation::kLogLog,
                         Dataset{data.param_names()});
      break;
    case ModelMethod::kAuto: {
      // Same blended criterion used for the GP champion: a handful of test
      // rows alone is too noisy a selector.
      const auto score = [](const Candidate& c) {
        return 0.5 * c.train_mape + 0.5 * c.test_mape;
      };
      std::vector<Candidate> candidates;
      candidates.push_back(fit_symreg(train, test, options));
      candidates.push_back(fit_features(train, test, options));
      try {
        candidates.push_back(fit_powerlaw(train, test));
      } catch (const std::invalid_argument&) {
        // Non-positive data or unidentifiable exponents: power law out.
      }
      std::size_t best = 0;
      for (std::size_t i = 1; i < candidates.size(); ++i)
        if (score(candidates[i]) < score(candidates[best])) best = i;
      chosen = std::move(candidates[best]);
      break;
    }
  }

  FittedKernel out;
  out.model = chosen.model;
  out.report.chosen = chosen.method;
  out.report.train_mape = chosen.train_mape;
  out.report.test_mape = chosen.test_mape;
  out.report.full_mape = validate_mape(*chosen.model, data);
  out.report.residual_sigma = residual_log_sigma(*chosen.model, data);
  out.report.formula = chosen.model->describe();
  out.noisy_model =
      std::make_shared<NoisyModel>(out.model, out.report.residual_sigma);
  return out;
}

}  // namespace ftbesst::model
