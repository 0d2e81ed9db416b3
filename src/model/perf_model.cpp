#include "model/perf_model.hpp"

#include <stdexcept>

namespace ftbesst::model {

// Default batch path: one virtual predict() per row. Models with a
// column-wise representation override this — ExprModel evaluates through
// ExprProgram::eval_dataset.
void PerfModel::predict_batch(const Dataset& data,
                              std::vector<double>& out) const {
  out.resize(data.num_rows());
  for (std::size_t i = 0; i < data.num_rows(); ++i)
    out[i] = predict(data.row(i).params);
}

double PerfModel::draw_opaque(double, std::span<const double>,
                              util::Rng&) const {
  throw std::logic_error(describe() + " has no opaque draw");
}

NoisyModel::NoisyModel(PerfModelPtr base, double log_sigma)
    : base_(std::move(base)), sigma_(log_sigma) {
  if (!base_) throw std::invalid_argument("NoisyModel needs a base model");
  if (sigma_ < 0.0) throw std::invalid_argument("sigma must be >= 0");
}

double NoisyModel::predict(std::span<const double> params) const {
  return base_->predict(params);
}

Price NoisyModel::price(std::span<const double> params) const {
  return {base_->predict(params), DrawKind::kLognormal, sigma_};
}

std::string NoisyModel::describe() const {
  return base_->describe() + " * lognormal(sigma=" + std::to_string(sigma_) +
         ")";
}

}  // namespace ftbesst::model
