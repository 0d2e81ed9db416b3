#pragma once
// The performance-model interface bound into ArchBEOs.
//
// When the BE-SST simulator executes an abstract instruction, it polls the
// bound PerfModel for the predicted duration instead of running the real
// computation. `predict` is the deterministic expectation; `sample` is the
// Monte-Carlo draw that reproduces machine variance (the paper runs
// Monte-Carlo ensembles so each simulated point is a distribution).
//
// `price` splits a draw into the part that depends only on the parameter
// point (the median and the draw kind) and the per-trial randomness, so the
// engines can price a whole program once and draw per trial
// (core::PricedProgram). `sample` is defined through `price`, so the two
// cannot drift apart.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "model/dataset.hpp"
#include "util/rng.hpp"

namespace ftbesst::model {

/// How PerfModel::sample draws around the median.
enum class DrawKind : std::uint8_t {
  kFixed,      ///< no draw: the median itself, no RNG call
  kLognormal,  ///< rng.lognormal_median(median, sigma): one normal() call
  kOpaque      ///< the model's own draw (TableModel's empirical samples)
};

/// A model's answer at one parameter point: the median (== predict()) and
/// how sample() draws around it.
struct Price {
  double median = 0.0;
  DrawKind kind = DrawKind::kFixed;
  double sigma = 0.0;  ///< log-space sigma, kLognormal only
};

class PerfModel {
 public:
  virtual ~PerfModel() = default;
  /// Expected duration in seconds for the given parameter point.
  [[nodiscard]] virtual double predict(
      std::span<const double> params) const = 0;
  /// Predict every row of `data` into `out` (resized to data.num_rows(),
  /// row order). The default simply loops over predict(); models with a
  /// compiled batch path (ExprModel, FeatureModel) override it. Overrides
  /// must stay bit-identical to the per-row loop — validation and fitness
  /// numbers may not depend on which path ran.
  virtual void predict_batch(const Dataset& data,
                             std::vector<double>& out) const;
  /// Median and draw kind at a parameter point. The default is a fixed
  /// draw at predict(params); `median` must always equal predict(params).
  [[nodiscard]] virtual Price price(std::span<const double> params) const {
    return {predict(params)};
  }
  /// One stochastic draw: draw(price(params), params, rng).
  [[nodiscard]] double sample(std::span<const double> params,
                              util::Rng& rng) const {
    return draw(price(params), params, rng);
  }
  /// One draw around `p`, which must be price(params). Consumes exactly the
  /// random numbers sample(params, rng) would.
  [[nodiscard]] double draw(const Price& p, std::span<const double> params,
                            util::Rng& rng) const {
    switch (p.kind) {
      case DrawKind::kFixed:
        return p.median;
      case DrawKind::kLognormal:
        return rng.lognormal_median(p.median, p.sigma);
      case DrawKind::kOpaque:
        break;
    }
    return draw_opaque(p.median, params, rng);
  }
  /// Human-readable description (e.g. the regressed formula).
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  /// The DrawKind::kOpaque draw around `median` (== predict(params)). Only
  /// models whose price() reports kOpaque override it; the default throws
  /// std::logic_error.
  [[nodiscard]] virtual double draw_opaque(double median,
                                           std::span<const double> params,
                                           util::Rng& rng) const;
};

using PerfModelPtr = std::shared_ptr<const PerfModel>;

/// Fixed-duration model, mainly for tests and quickstart examples.
class ConstantModel final : public PerfModel {
 public:
  explicit ConstantModel(double seconds) : seconds_(seconds) {}
  [[nodiscard]] double predict(std::span<const double>) const override {
    return seconds_;
  }
  [[nodiscard]] std::string describe() const override {
    return "const(" + std::to_string(seconds_) + "s)";
  }

 private:
  double seconds_;
};

/// Wraps any model with multiplicative log-normal noise whose sigma was
/// estimated from calibration residuals — this is how BE-SST's Monte-Carlo
/// mode "captures the variance that exists in the calibration samples".
class NoisyModel final : public PerfModel {
 public:
  NoisyModel(PerfModelPtr base, double log_sigma);

  [[nodiscard]] double predict(std::span<const double> params) const override;
  void predict_batch(const Dataset& data,
                     std::vector<double>& out) const override {
    base_->predict_batch(data, out);
  }
  /// Log-normal around the base prediction, σ = 0 included (it still
  /// consumes one normal()).
  [[nodiscard]] Price price(std::span<const double> params) const override;
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] double log_sigma() const noexcept { return sigma_; }
  [[nodiscard]] const PerfModelPtr& base() const noexcept { return base_; }

 private:
  PerfModelPtr base_;
  double sigma_;
};

}  // namespace ftbesst::model
