#include "net/comm.hpp"

#include <gtest/gtest.h>

namespace ftbesst::net {
namespace {

CommParams test_params() {
  CommParams p;
  p.sw_latency = 100e-9;
  p.injection_latency = 1e-6;
  p.bandwidth = 10e9;
  p.congestion_gamma = 0.05;
  return p;
}

TEST(CommModel, PtpTimeDecomposesLatencyAndBandwidth) {
  TwoStageFatTree ft(4, 8, 2);
  CommModel comm(ft, test_params());
  // Same leaf: 2 hops.
  const double t_small = comm.ptp_time(0, 1, 0);
  EXPECT_NEAR(t_small, 1e-6 + 2 * 100e-9, 1e-12);
  // 1 MB message adds serialization at 10 GB/s.
  const double t_big = comm.ptp_time(0, 1, 1000000);
  EXPECT_NEAR(t_big - t_small, 1e-4, 1e-9);
  // Cross-leaf pays 2 extra hops.
  EXPECT_NEAR(comm.ptp_time(0, 9, 0) - t_small, 2 * 100e-9, 1e-12);
}

TEST(CommModel, SelfMessageIsFree) {
  TwoStageFatTree ft(2, 4, 1);
  CommModel comm(ft, test_params());
  EXPECT_DOUBLE_EQ(comm.ptp_time(3, 3, 12345), 0.0);
}

TEST(CommModel, CollectivesScaleLogarithmically) {
  TwoStageFatTree ft(64, 32, 32);
  CommModel comm(ft, test_params());
  const double b16 = comm.barrier_time(16);
  const double b256 = comm.barrier_time(256);
  EXPECT_NEAR(b256 / b16, 2.0, 1e-9);  // log2 256 / log2 16
  EXPECT_DOUBLE_EQ(comm.barrier_time(1), 0.0);
}

TEST(CommModel, AllreduceLatencyAndBandwidthTerms) {
  TwoStageFatTree ft(64, 32, 32);
  CommModel comm(ft, test_params());
  const double small = comm.allreduce_time(64, 8);
  const double large = comm.allreduce_time(64, 100000000);
  EXPECT_GT(large, small);
  // Large-message term is ~ 2 * bytes / bw.
  EXPECT_NEAR(large - small, 2.0 * (100000000 - 8) / 10e9, 1e-6);
  EXPECT_DOUBLE_EQ(comm.allreduce_time(1, 100), 0.0);
}

TEST(CommModel, MonotoneInRanksAndBytes) {
  Torus torus({8, 8, 8});
  CommModel comm(torus, test_params());
  EXPECT_LE(comm.allreduce_time(8, 1024), comm.allreduce_time(64, 1024));
  EXPECT_LE(comm.allreduce_time(64, 1024), comm.allreduce_time(64, 4096));
  EXPECT_LE(comm.neighbor_exchange_time(8, 6, 1024),
            comm.neighbor_exchange_time(512, 6, 1024));
}

TEST(CommModel, ContentionKicksInAboveBisection) {
  TwoStageFatTree ft(4, 16, 2);  // bisection = 4 links
  CommModel comm(ft, test_params());
  EXPECT_DOUBLE_EQ(comm.contention_factor(1.0), 1.0);
  EXPECT_DOUBLE_EQ(comm.contention_factor(4.0), 1.0);
  EXPECT_GT(comm.contention_factor(64.0), 1.0);
  EXPECT_GT(comm.contention_factor(128.0), comm.contention_factor(64.0));
}

TEST(CommModel, NeighborExchangeGrowsWithDegree) {
  Torus torus({4, 4, 4});
  CommModel comm(torus, test_params());
  EXPECT_LT(comm.neighbor_exchange_time(64, 3, 65536),
            comm.neighbor_exchange_time(64, 6, 65536));
  EXPECT_DOUBLE_EQ(comm.neighbor_exchange_time(1, 6, 65536), 0.0);
  EXPECT_DOUBLE_EQ(comm.neighbor_exchange_time(64, 0, 65536), 0.0);
}

TEST(CommModel, RejectsInvalidParams) {
  TwoStageFatTree ft(2, 2, 1);
  CommParams bad = test_params();
  bad.bandwidth = 0.0;
  EXPECT_THROW(CommModel(ft, bad), std::invalid_argument);
  bad = test_params();
  bad.sw_latency = -1.0;
  EXPECT_THROW(CommModel(ft, bad), std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::net
