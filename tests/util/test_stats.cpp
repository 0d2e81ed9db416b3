#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace ftbesst::util {
namespace {

TEST(Stats, MeanOfKnownValues) {
  const std::array<double, 4> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, SampleStddevMatchesHandComputation) {
  const std::array<double, 4> xs{2.0, 4.0, 4.0, 6.0};
  // mean 4, squared devs {4,0,0,4}, var = 8/3
  EXPECT_NEAR(sample_stddev(xs), std::sqrt(8.0 / 3.0), 1e-12);
}

TEST(Stats, StddevOfSingletonIsZero) {
  const std::array<double, 1> xs{5.0};
  EXPECT_DOUBLE_EQ(sample_stddev(xs), 0.0);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  const std::array<double, 5> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolatesBetweenPoints) {
  const std::array<double, 2> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Stats, SummarizeAggregatesEverything) {
  const std::array<double, 5> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
}

TEST(Stats, MapeOfPerfectPredictionIsZero) {
  const std::array<double, 3> a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(mape_percent(a, a), 0.0);
}

TEST(Stats, MapeMatchesHandComputation) {
  const std::array<double, 2> actual{10.0, 20.0};
  const std::array<double, 2> pred{11.0, 18.0};
  // (0.1 + 0.1)/2 * 100 = 10%
  EXPECT_NEAR(mape_percent(actual, pred), 10.0, 1e-12);
}

TEST(Stats, MapeSkipsZeroActuals) {
  const std::array<double, 3> actual{0.0, 10.0, 10.0};
  const std::array<double, 3> pred{5.0, 11.0, 9.0};
  EXPECT_NEAR(mape_percent(actual, pred), 10.0, 1e-12);
}

TEST(Stats, MapeIsSymmetricInSignOfError) {
  const std::array<double, 1> actual{100.0};
  const std::array<double, 1> over{120.0};
  const std::array<double, 1> under{80.0};
  EXPECT_DOUBLE_EQ(mape_percent(actual, over), mape_percent(actual, under));
}

TEST(RunningStats, MatchesBatchStatistics) {
  Rng rng(99);
  std::vector<double> xs(10000);
  RunningStats rs;
  for (auto& x : xs) {
    x = rng.normal(3.0, 1.5);
    rs.add(x);
  }
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-9);
  EXPECT_NEAR(rs.stddev(), sample_stddev(xs), 1e-9);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(rs.min(), s.min);
  EXPECT_DOUBLE_EQ(rs.max(), s.max);
}

TEST(RunningStats, EmptyAndSingleton) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(7.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 7.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

TEST(Quantile, NanElementsAreDroppedBeforeRanking) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // {nan, 3, nan, 1, 2} ranks over {1, 2, 3}.
  const std::vector<double> xs{nan, 3.0, nan, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 3.0);
  EXPECT_FALSE(std::isnan(quantile(xs, 0.25)));
}

TEST(Quantile, AllNanAndEmptyReturnZero) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{nan, nan}, 0.5), 0.0);
}

TEST(Quantile, SingleElementIsEveryQuantile) {
  const std::vector<double> one{42.0};
  for (double q : {0.0, 0.1, 0.5, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(quantile(one, q), 42.0);
  // A single survivor after NaN filtering behaves the same way.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(quantile(std::vector<double>{nan, 7.0, nan}, 0.5), 7.0);
}

TEST(Summary, MedianFollowsQuantileNanSemantics) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xs{nan, 5.0, 1.0, 3.0};
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.median, 3.0);  // median of {1, 3, 5}
}

struct QuantileCase {
  double q;
  double expected;
};

class QuantileSweep : public ::testing::TestWithParam<QuantileCase> {};

TEST_P(QuantileSweep, TenPointGrid) {
  // xs = {0, 1, ..., 9}; quantile(q) = 9q by linear interpolation.
  std::vector<double> xs(10);
  for (int i = 0; i < 10; ++i) xs[i] = i;
  EXPECT_NEAR(quantile(xs, GetParam().q), GetParam().expected, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, QuantileSweep,
                         ::testing::Values(QuantileCase{0.0, 0.0},
                                           QuantileCase{0.1, 0.9},
                                           QuantileCase{0.25, 2.25},
                                           QuantileCase{0.5, 4.5},
                                           QuantileCase{0.75, 6.75},
                                           QuantileCase{0.9, 8.1},
                                           QuantileCase{1.0, 9.0}));

}  // namespace
}  // namespace ftbesst::util
