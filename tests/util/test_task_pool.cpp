// The shared work-stealing task pool: completeness, nesting (helping
// waiters), dynamic claiming, exception propagation, and a multi-submitter
// stress test that is the designated ThreadSanitizer target.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/task_pool.hpp"

namespace ftbesst::util {
namespace {

TEST(TaskPool, RunsEveryTask) {
  std::atomic<int> count{0};
  TaskGroup group;
  for (int i = 0; i < 1000; ++i)
    group.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  group.wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(TaskPool, WaitOnEmptyGroupReturnsImmediately) {
  TaskGroup group;
  group.wait();
  group.wait();  // idempotent
}

TEST(TaskPool, NestedGroupsCompose) {
  // Outer tasks create and wait on inner groups — the DSE shape. Waiters
  // help execute, so this must finish even on a single-core pool.
  std::atomic<int> count{0};
  TaskGroup outer;
  for (int i = 0; i < 8; ++i) {
    outer.run([&count] {
      TaskGroup inner;
      for (int j = 0; j < 32; ++j)
        inner.run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(count.load(), 8 * 32);
}

TEST(TaskPool, ParallelForCoversEachIndexExactlyOnce) {
  constexpr std::size_t kN = 4096;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(TaskPool, ParallelForHandlesEdgeSizes) {
  int zero_calls = 0;
  parallel_for(0, [&zero_calls](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);
  std::atomic<int> one_calls{0};
  parallel_for(1, [&one_calls](std::size_t) { ++one_calls; });
  EXPECT_EQ(one_calls.load(), 1);
}

TEST(TaskPool, WaitPropagatesFirstTaskException) {
  TaskGroup group;
  std::atomic<int> survivors{0};
  group.run([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 16; ++i)
    group.run([&survivors] { survivors.fetch_add(1); });
  EXPECT_THROW(group.wait(), std::runtime_error);
  // The failure did not cancel the rest of the group.
  EXPECT_EQ(survivors.load(), 16);
  // The error is consumed: a later wait succeeds.
  group.run([&survivors] { survivors.fetch_add(1); });
  group.wait();
  EXPECT_EQ(survivors.load(), 17);
}

TEST(TaskPool, LocalPoolIsIndependentOfShared) {
  TaskPool pool(2);
  EXPECT_EQ(pool.worker_count(), 2u);
  std::atomic<int> count{0};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) group.run([&count] { count.fetch_add(1); });
  group.wait();
  EXPECT_EQ(count.load(), 64);
}  // pool destructor joins its workers here

TEST(TaskPool, StressManyConcurrentSubmitters) {
  // Several external threads hammer the shared pool with nested groups at
  // once. Run under scripts/check.sh's TSan configuration, this is the
  // pool's data-race canary.
  constexpr int kSubmitters = 4;
  constexpr int kOuter = 16;
  constexpr int kInner = 64;
  std::atomic<long> total{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&total] {
      TaskGroup group;
      for (int i = 0; i < kOuter; ++i) {
        group.run([&total] {
          TaskGroup inner;
          for (int j = 0; j < kInner; ++j)
            inner.run([&total] {
              total.fetch_add(1, std::memory_order_relaxed);
            });
          inner.wait();
        });
      }
      group.wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), long{kSubmitters} * kOuter * kInner);
}

TEST(TaskPool, ParallelForDynamicClaimingBalancesUnevenWork) {
  // Indices carry wildly different costs; dynamic claiming must still
  // complete them all (the run_ensemble fault-trial imbalance in miniature).
  constexpr std::size_t kN = 200;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(kN, [&hits](std::size_t i) {
    volatile double sink = 0.0;
    const int spin = (i % 10 == 0) ? 20000 : 10;
    for (int k = 0; k < spin; ++k) sink = sink + static_cast<double>(k);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  int sum = 0;
  for (auto& h : hits) sum += h.load();
  EXPECT_EQ(sum, static_cast<int>(kN));
}

}  // namespace
}  // namespace ftbesst::util
