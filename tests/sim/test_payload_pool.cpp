// The thread-local payload freelist: reuse, sizing, cross-thread handoff.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "sim/detail/payload_pool.hpp"
#include "sim/event.hpp"

namespace ftbesst::sim {
namespace {

using detail::payload_pool_stats;
using detail::payload_pool_trim;

TEST(PayloadPool, FreedBlocksAreReused) {
  payload_pool_trim();
  const auto before = payload_pool_stats();
  { auto p = box<int>(1); }  // allocate + free: seeds the freelist
  { auto p = box<int>(2); }  // must be served from the freelist
  const auto after = payload_pool_stats();
  EXPECT_EQ(after.allocations - before.allocations, 2u);
  EXPECT_EQ(after.deallocations - before.deallocations, 2u);
  EXPECT_GE(after.freelist_hits - before.freelist_hits, 1u);
}

TEST(PayloadPool, DistinctSizesGetDistinctBuckets) {
  payload_pool_trim();
  auto small = box<int>(1);
  auto large = box<std::array<char, 200>>({});
  const void* small_addr = small.get();
  small.reset();
  large.reset();
  // Freeing the 200-byte payload must not satisfy the next small alloc
  // from the wrong bucket; the small slot is reused for a small payload.
  auto small2 = box<int>(2);
  EXPECT_EQ(static_cast<const void*>(small2.get()), small_addr);
}

TEST(PayloadPool, OversizedPayloadsBypassThePool) {
  payload_pool_trim();
  const auto before = payload_pool_stats();
  { auto big = box<std::array<char, 4096>>({}); }
  { auto big = box<std::array<char, 4096>>({}); }
  const auto after = payload_pool_stats();
  EXPECT_EQ(after.allocations - before.allocations, 2u);
  EXPECT_EQ(after.freelist_hits - before.freelist_hits, 0u);
}

TEST(PayloadPool, CrossThreadFreeIsSafe) {
  // Allocate on this thread, destroy on another (a Simulation built on one
  // thread and run or destroyed on another): the block simply joins the
  // destroying thread's freelist.
  std::vector<std::unique_ptr<Payload>> batch;
  for (int i = 0; i < 256; ++i) batch.push_back(box<int>(i));
  std::thread consumer([&batch] {
    batch.clear();
    // And allocate fresh ones over there.
    for (int i = 0; i < 256; ++i) {
      auto p = box<int>(i);
      ASSERT_NE(unbox<int>(p.get()), nullptr);
    }
  });
  consumer.join();
  auto p = box<int>(7);
  EXPECT_EQ(*unbox<int>(p.get()), 7);
}

TEST(PayloadPool, TrimReleasesCachedBlocks) {
  { auto p = box<int>(1); }
  payload_pool_trim();  // must not crash or leak (ASan/valgrind verified)
  auto p = box<int>(2);
  EXPECT_EQ(*unbox<int>(p.get()), 2);
}

}  // namespace
}  // namespace ftbesst::sim
