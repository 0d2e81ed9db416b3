#include "model/crossval.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace ftbesst::model {
namespace {

Dataset quadratic_data(double noise_sigma, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d({"a", "b"});
  for (double a : {1.0, 2.0, 3.0, 4.0, 5.0})
    for (double b : {10.0, 20.0, 40.0, 80.0}) {
      const double y = 0.01 * a * a + 1e-4 * b;
      std::vector<double> samples;
      for (int s = 0; s < 4; ++s)
        samples.push_back(noise_sigma > 0
                              ? rng.lognormal_median(y, noise_sigma)
                              : y);
      d.add_row({a, b}, std::move(samples));
    }
  return d;
}

FitOptions quick_options(ModelMethod method) {
  FitOptions opt;
  opt.method = method;
  opt.symreg.population = 96;
  opt.symreg.generations = 25;
  opt.seed = 3;
  return opt;
}

TEST(CrossVal, CleanDataGivesLowHeldOutError) {
  const Dataset d = quadratic_data(0.0, 1);
  const auto report =
      cross_validate(d, quick_options(ModelMethod::kFeatureRegression), 5);
  EXPECT_EQ(report.folds, 5u);
  EXPECT_EQ(report.fold_mape.count, 5u);
  EXPECT_LT(report.fold_mape.mean, 5.0);
}

TEST(CrossVal, NoisyDataStillBounded) {
  const Dataset d = quadratic_data(0.1, 2);
  const auto report =
      cross_validate(d, quick_options(ModelMethod::kFeatureRegression), 4);
  // 22 features on 15 training rows with 10% noise: generalization error is
  // real but must stay sane.
  EXPECT_LT(report.fold_mape.mean, 60.0);
  EXPECT_GT(report.fold_mape.mean, 0.0);
}

TEST(CrossVal, DeterministicForSeed) {
  const Dataset d = quadratic_data(0.05, 3);
  const auto a =
      cross_validate(d, quick_options(ModelMethod::kFeatureRegression), 5);
  const auto b =
      cross_validate(d, quick_options(ModelMethod::kFeatureRegression), 5);
  EXPECT_DOUBLE_EQ(a.fold_mape.mean, b.fold_mape.mean);
}

TEST(CrossVal, InputValidation) {
  const Dataset d = quadratic_data(0.0, 4);
  EXPECT_THROW(
      (void)cross_validate(d, quick_options(ModelMethod::kFeatureRegression),
                           1),
      std::invalid_argument);
  EXPECT_THROW(
      (void)cross_validate(d,
                           quick_options(ModelMethod::kTableMultilinear), 5),
      std::invalid_argument);
  Dataset tiny({"a"});
  tiny.add_row({1.0}, {1.0});
  tiny.add_row({2.0}, {2.0});
  EXPECT_THROW(
      (void)cross_validate(tiny,
                           quick_options(ModelMethod::kFeatureRegression), 5),
      std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::model
