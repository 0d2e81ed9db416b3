#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

namespace ftbesst::net {

// Print sweep parameters by topology name, not by address, so the test
// names are stable from one run to the next. Found by ADL through
// std::shared_ptr<Topology>, hence outside the anonymous namespace.
void PrintTo(const std::shared_ptr<Topology>& topo, std::ostream* os) {
  *os << topo->name();
}

namespace {

TEST(FatTree, NodeCountAndLeafAssignment) {
  TwoStageFatTree ft(4, 8, 2);
  EXPECT_EQ(ft.num_nodes(), 32);
  EXPECT_EQ(ft.leaf_of(0), 0);
  EXPECT_EQ(ft.leaf_of(7), 0);
  EXPECT_EQ(ft.leaf_of(8), 1);
  EXPECT_EQ(ft.leaf_of(31), 3);
}

TEST(FatTree, HopCounts) {
  TwoStageFatTree ft(4, 8, 2);
  EXPECT_EQ(ft.hops(3, 3), 0);
  EXPECT_EQ(ft.hops(0, 7), 2);   // same leaf
  EXPECT_EQ(ft.hops(0, 8), 4);   // via spine
  EXPECT_EQ(ft.hops(31, 0), 4);
}

TEST(FatTree, DiameterAndBisection) {
  TwoStageFatTree ft(4, 8, 2);
  EXPECT_EQ(ft.diameter(), 4);
  EXPECT_DOUBLE_EQ(ft.bisection_links(), 4.0);  // 4 leaves * 2 spines / 2
  EXPECT_DOUBLE_EQ(ft.oversubscription(), 4.0);
  TwoStageFatTree single(1, 8, 1);
  EXPECT_EQ(single.diameter(), 2);
}

TEST(FatTree, RejectsBadDimensions) {
  EXPECT_THROW(TwoStageFatTree(0, 8, 2), std::invalid_argument);
  EXPECT_THROW(TwoStageFatTree(4, 0, 2), std::invalid_argument);
  EXPECT_THROW(TwoStageFatTree(4, 8, 0), std::invalid_argument);
}

TEST(FatTree, RejectsOutOfRangeNodes) {
  TwoStageFatTree ft(2, 2, 1);
  EXPECT_THROW((void)ft.hops(0, 4), std::out_of_range);
  EXPECT_THROW((void)ft.hops(-1, 0), std::out_of_range);
}

TEST(Torus, CoordinateRoundTrip) {
  Torus t({3, 4, 5});
  EXPECT_EQ(t.num_nodes(), 60);
  for (NodeId n = 0; n < 60; ++n)
    EXPECT_EQ(t.node_at(t.coords(n)), n);
}

TEST(Torus, RingDistancesWrap) {
  Torus ring({8});
  EXPECT_EQ(ring.hops(0, 1), 1);
  EXPECT_EQ(ring.hops(0, 4), 4);
  EXPECT_EQ(ring.hops(0, 7), 1);  // wraps
  EXPECT_EQ(ring.hops(1, 6), 3);
}

TEST(Torus, MultiDimDistanceIsManhattanWithWrap) {
  Torus t({4, 4});
  // node = row*4 + col
  EXPECT_EQ(t.hops(0, 5), 2);   // (0,0)->(1,1)
  EXPECT_EQ(t.hops(0, 15), 2);  // (0,0)->(3,3): wrap both dims
  EXPECT_EQ(t.hops(0, 10), 4);  // (0,0)->(2,2)
}

TEST(Torus, DiameterMatchesHalfDims) {
  Torus t({4, 6, 3});
  EXPECT_EQ(t.diameter(), 2 + 3 + 1);
}

TEST(Torus, BisectionUsesLargestDim) {
  Torus t({8, 4});
  EXPECT_DOUBLE_EQ(t.bisection_links(), 2.0 * 32 / 8);
}

TEST(Torus, RejectsBadInput) {
  EXPECT_THROW(Torus({}), std::invalid_argument);
  EXPECT_THROW(Torus({4, 0}), std::invalid_argument);
  Torus t({4});
  EXPECT_THROW((void)t.node_at({1, 1}), std::invalid_argument);
  EXPECT_THROW((void)t.node_at({5}), std::out_of_range);
}

class TopologySweep
    : public ::testing::TestWithParam<std::shared_ptr<Topology>> {};

TEST_P(TopologySweep, HopMetricProperties) {
  const auto& topo = *GetParam();
  const NodeId n = std::min<NodeId>(topo.num_nodes(), 24);
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(topo.hops(a, a), 0);
    for (NodeId b = 0; b < n; ++b) {
      EXPECT_EQ(topo.hops(a, b), topo.hops(b, a)) << a << "," << b;
      if (a != b) {
        EXPECT_GE(topo.hops(a, b), 1);
      }
      EXPECT_LE(topo.hops(a, b), topo.diameter());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologySweep,
    ::testing::Values(std::make_shared<TwoStageFatTree>(4, 6, 2),
                      std::make_shared<TwoStageFatTree>(1, 24, 1),
                      std::make_shared<Torus>(std::vector<NodeId>{24}),
                      std::make_shared<Torus>(std::vector<NodeId>{4, 6}),
                      std::make_shared<Torus>(std::vector<NodeId>{2, 3, 4})));

}  // namespace
}  // namespace ftbesst::net
