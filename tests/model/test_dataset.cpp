#include "model/dataset.hpp"

#include <gtest/gtest.h>

namespace ftbesst::model {
namespace {

Dataset grid_2x3() {
  Dataset d({"a", "b"});
  for (double a : {1.0, 2.0})
    for (double b : {10.0, 20.0, 30.0})
      d.add_row({a, b}, {a + b, a + b + 1.0});
  return d;
}

TEST(Dataset, BasicAccessors) {
  const Dataset d = grid_2x3();
  EXPECT_EQ(d.num_rows(), 6u);
  EXPECT_EQ(d.num_params(), 2u);
  EXPECT_DOUBLE_EQ(d.row(0).mean_response(), 11.5);
}

TEST(Dataset, RejectsMalformedRows) {
  Dataset d({"a"});
  EXPECT_THROW(d.add_row({1.0, 2.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(d.add_row({1.0}, {}), std::invalid_argument);
  EXPECT_THROW(Dataset({}), std::invalid_argument);
}

TEST(Dataset, ResponsesInRowOrder) {
  const Dataset d = grid_2x3();
  const auto ys = d.responses();
  ASSERT_EQ(ys.size(), 6u);
  EXPECT_DOUBLE_EQ(ys[0], 11.5);
  EXPECT_DOUBLE_EQ(ys[5], 32.5);
}

TEST(Dataset, UniqueValuesSortedAndDeduped) {
  const Dataset d = grid_2x3();
  EXPECT_EQ(d.unique_values(0), (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(d.unique_values(1), (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_THROW((void)d.unique_values(5), std::out_of_range);
}

TEST(Dataset, FullGridDetection) {
  EXPECT_TRUE(grid_2x3().is_full_grid());
  Dataset sparse({"a", "b"});
  sparse.add_row({1.0, 10.0}, {1.0});
  sparse.add_row({2.0, 20.0}, {2.0});
  EXPECT_FALSE(sparse.is_full_grid());
  Dataset dup({"a"});
  dup.add_row({1.0}, {1.0});
  dup.add_row({1.0}, {2.0});
  EXPECT_FALSE(dup.is_full_grid());
}

TEST(Dataset, SplitPartitionsAllRows) {
  const Dataset d = grid_2x3();
  util::Rng rng(3);
  const auto [train, test] = d.split(0.67, rng);
  EXPECT_EQ(train.num_rows() + test.num_rows(), d.num_rows());
  EXPECT_GE(train.num_rows(), 1u);
  EXPECT_GE(test.num_rows(), 1u);
}

TEST(Dataset, SplitIsDeterministicForSeed) {
  const Dataset d = grid_2x3();
  util::Rng r1(9), r2(9);
  const auto [tr1, te1] = d.split(0.5, r1);
  const auto [tr2, te2] = d.split(0.5, r2);
  ASSERT_EQ(tr1.num_rows(), tr2.num_rows());
  for (std::size_t i = 0; i < tr1.num_rows(); ++i)
    EXPECT_EQ(tr1.row(i).params, tr2.row(i).params);
}

TEST(Dataset, SplitExtremesStillLeaveBothSidesPopulated) {
  const Dataset d = grid_2x3();
  util::Rng rng(5);
  const auto [tr_lo, te_lo] = d.split(0.0, rng);
  EXPECT_GE(tr_lo.num_rows(), 1u);
  const auto [tr_hi, te_hi] = d.split(1.0, rng);
  EXPECT_GE(te_hi.num_rows(), 1u);
}

}  // namespace
}  // namespace ftbesst::model
