#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.hpp"

namespace ftbesst::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng parent(7);
  Rng c1 = parent.split(0);
  Rng c2 = parent.split(1);
  Rng c1_again = parent.split(0);
  EXPECT_EQ(c1(), c1_again());
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (c1() == c2());
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.split(3);
  EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(12);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIntCoversRangeUniformly) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(10)];
  for (int c : counts) {
    EXPECT_GT(c, n / 10 - 600);
    EXPECT_LT(c, n / 10 + 600);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(14);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  EXPECT_NEAR(mean(xs), 5.0, 0.05);
  EXPECT_NEAR(sample_stddev(xs), 2.0, 0.05);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng rng(15);
  std::vector<double> xs(50001);
  for (auto& x : xs) x = rng.lognormal_median(10.0, 0.5);
  EXPECT_NEAR(quantile(xs, 0.5), 10.0, 0.3);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ExponentialMeanIsInverseRate) {
  Rng rng(16);
  std::vector<double> xs(50000);
  for (auto& x : xs) x = rng.exponential(0.25);
  EXPECT_NEAR(mean(xs), 4.0, 0.1);
}

class RngSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSeedSweep, UniformMeanNearHalf) {
  Rng rng(GetParam());
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST_P(RngSeedSweep, BitsLookBalanced) {
  Rng rng(GetParam());
  int ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) ones += __builtin_popcountll(rng());
  EXPECT_NEAR(static_cast<double>(ones) / (64.0 * n), 0.5, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL,
                                           ~0ULL));

}  // namespace
}  // namespace ftbesst::util
