#include "model/feature_model.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace ftbesst::model {

void FeatureLibrary::add(std::string name,
                         std::function<double(std::span<const double>)> fn) {
  features_.push_back(Feature{std::move(name), std::move(fn)});
}

FeatureLibrary FeatureLibrary::polynomial(std::size_t num_params) {
  FeatureLibrary lib;
  lib.tag_ = "polynomial " + std::to_string(num_params);
  lib.add("1", [](std::span<const double>) { return 1.0; });
  for (std::size_t i = 0; i < num_params; ++i) {
    const std::string xi = "x" + std::to_string(i);
    lib.add(xi, [i](std::span<const double> p) { return p[i]; });
    lib.add(xi + "^2",
            [i](std::span<const double> p) { return p[i] * p[i]; });
    lib.add(xi + "^3",
            [i](std::span<const double> p) { return p[i] * p[i] * p[i]; });
    lib.add("log(" + xi + ")", [i](std::span<const double> p) {
      return std::log(std::abs(p[i]) + 1.0);
    });
    lib.add(xi + "*log(" + xi + ")", [i](std::span<const double> p) {
      return p[i] * std::log(std::abs(p[i]) + 1.0);
    });
    lib.add("sqrt(" + xi + ")", [i](std::span<const double> p) {
      return std::sqrt(std::abs(p[i]));
    });
    lib.add(xi + "^1.5", [i](std::span<const double> p) {
      return p[i] * std::sqrt(std::abs(p[i]));
    });
  }
  for (std::size_t i = 0; i < num_params; ++i)
    for (std::size_t j = i + 1; j < num_params; ++j) {
      const std::string xi = "x" + std::to_string(i);
      const std::string xj = "x" + std::to_string(j);
      lib.add(xi + "*" + xj,
              [i, j](std::span<const double> p) { return p[i] * p[j]; });
      lib.add(xi + "*log(" + xj + ")", [i, j](std::span<const double> p) {
        return p[i] * std::log(std::abs(p[j]) + 1.0);
      });
      lib.add(xj + "*log(" + xi + ")", [i, j](std::span<const double> p) {
        return p[j] * std::log(std::abs(p[i]) + 1.0);
      });
      // Mixed power interactions — the shapes of volume-scaled contention
      // terms (data^k * parallelism) common in checkpoint/comm kernels.
      lib.add(xi + "^2*" + xj, [i, j](std::span<const double> p) {
        return p[i] * p[i] * p[j];
      });
      lib.add(xj + "^2*" + xi, [i, j](std::span<const double> p) {
        return p[j] * p[j] * p[i];
      });
      lib.add(xi + "^3*" + xj, [i, j](std::span<const double> p) {
        return p[i] * p[i] * p[i] * p[j];
      });
      lib.add(xj + "^3*" + xi, [i, j](std::span<const double> p) {
        return p[j] * p[j] * p[j] * p[i];
      });
    }
  return lib;
}

std::vector<double> FeatureLibrary::evaluate(
    std::span<const double> params) const {
  std::vector<double> phi;
  evaluate_into(params, phi);
  return phi;
}

void FeatureLibrary::evaluate_into(std::span<const double> params,
                                   std::vector<double>& phi) const {
  phi.resize(features_.size());
  for (std::size_t j = 0; j < features_.size(); ++j)
    phi[j] = features_[j].fn(params);
}

FeatureModel::FeatureModel(FeatureLibrary library, std::vector<double> weights)
    : library_(std::move(library)), weights_(std::move(weights)) {
  if (library_.size() != weights_.size())
    throw std::invalid_argument("feature/weight count mismatch");
}

FeatureModel FeatureModel::fit(const Dataset& data, FeatureLibrary library,
                               double ridge_lambda, bool relative_error) {
  const std::size_t n = data.num_rows();
  const std::size_t p = library.size();
  if (n == 0) throw std::invalid_argument("cannot fit on empty dataset");

  Matrix x(n, p);
  std::vector<double> y(n, 0.0);
  std::vector<double> phi;
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = data.row(i);
    const double response = row.mean_response();
    const double w =
        relative_error ? 1.0 / std::max(std::abs(response), 1e-12) : 1.0;
    library.evaluate_into(row.params, phi);
    for (std::size_t j = 0; j < p; ++j) x.at(i, j) = phi[j] * w;
    y[i] = response * w;
  }
  // Columns span wildly different magnitudes (1 vs x^3*y); scale each to
  // unit RMS so the ridge penalty is meaningful, then map weights back.
  std::vector<double> scale(p, 1.0);
  for (std::size_t j = 0; j < p; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) acc += x.at(i, j) * x.at(i, j);
    const double rms = std::sqrt(acc / static_cast<double>(n));
    if (rms > 1e-300) scale[j] = rms;
    for (std::size_t i = 0; i < n; ++i) x.at(i, j) /= scale[j];
  }
  auto weights = ridge_least_squares(x, y, ridge_lambda);
  for (std::size_t j = 0; j < p; ++j) weights[j] /= scale[j];
  return FeatureModel(std::move(library), std::move(weights));
}

double FeatureModel::predict(std::span<const double> params) const {
  const auto phi = library_.evaluate(params);
  double acc = 0.0;
  for (std::size_t j = 0; j < weights_.size(); ++j)
    acc += weights_[j] * phi[j];
  return acc < 0.0 ? 0.0 : acc;
}

// Row-wise by design: the feature library is a set of opaque per-row
// closures, not an ExprProgram, so there is no instruction stream to
// evaluate column-wise. The win here is reusing `phi` across rows.
void FeatureModel::predict_batch(const Dataset& data,
                                 std::vector<double>& out) const {
  out.resize(data.num_rows());
  std::vector<double> phi;
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    library_.evaluate_into(data.row(i).params, phi);
    double acc = 0.0;
    for (std::size_t j = 0; j < weights_.size(); ++j)
      acc += weights_[j] * phi[j];
    out[i] = acc < 0.0 ? 0.0 : acc;
  }
}

std::string FeatureModel::describe() const {
  std::ostringstream os;
  os << "features[";
  bool first = true;
  for (std::size_t j = 0; j < weights_.size(); ++j) {
    if (std::abs(weights_[j]) < 1e-15) continue;
    if (!first) os << " + ";
    os << weights_[j] << "*" << library_.at(j).name;
    first = false;
  }
  os << "]";
  return os.str();
}

}  // namespace ftbesst::model
