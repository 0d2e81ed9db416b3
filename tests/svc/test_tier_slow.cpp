// Soak and chaos harness for the scaled serving tier (LABELS slow — run by
// the check.sh `tier` and `slow` passes, excluded from `ctest -LE slow`).
//
//   * Soak: 8 concurrent clients drive 10k mixed requests (~300 unique)
//     through a 4-worker tier; every ok response must be byte-identical to
//     the single-process server's answer for the same request.
//   * Chaos: kill -9 a worker mid-soak. Clients must only ever observe
//     clean outcomes (ok or {"code":"overload"} — never a malformed frame
//     or a dropped connection), the router must respawn the worker, and
//     the respawned shard must answer its keys from cache (warm handoff),
//     not recompute them.
//
// Seeds flow through FTBESST_TEST_SEED (tests/support/test_seed.hpp).

#include <gtest/gtest.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "server_test_util.hpp"
#include "support/test_seed.hpp"
#include "svc/registry.hpp"
#include "tier_test_util.hpp"

namespace ftbesst::svc {
namespace {

bool await(const std::function<bool()>& done, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

/// The soak request mix: cacheable predict/simulate requests whose answers
/// are deterministic functions of the request (constant models), so the
/// single-process reference and every tier worker agree byte-for-byte.
std::vector<Json> unique_requests(std::size_t count) {
  std::vector<Json> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 0) {
      JsonObject req;
      req.emplace("op", Json(std::string("predict")));
      req.emplace("kernel", Json(std::string("lulesh_timestep")));
      JsonArray params;
      params.emplace_back(static_cast<std::int64_t>(4 + i % 32));
      params.emplace_back(static_cast<std::int64_t>(8 << (i % 4)));
      req.emplace("params", Json(std::move(params)));
      requests.emplace_back(std::move(req));
    } else {
      requests.push_back(
          simulate_request(static_cast<int>(9000 + i), 2 + i % 3));
    }
  }
  return requests;
}

/// Expected result bytes per canonical key, computed by a plain in-process
/// Server over the same analytic registry.
std::map<std::string, std::string> reference_answers(
    const std::vector<Json>& requests) {
  TestServer reference({}, "tier-ref");
  Client direct = reference.client();
  std::map<std::string, std::string> expected;
  for (const Json& request : requests) {
    const ClientResponse reply = direct.call(request);
    EXPECT_TRUE(reply.ok) << reply.raw;
    expected[canonical_key(request)] = reply.result_bytes;
  }
  return expected;
}

TEST(TierSoak, EightClientsTenThousandRequestsByteIdentical) {
  const std::uint64_t seed = test::test_seed(50821);
  const auto requests = unique_requests(300);
  const auto expected = reference_answers(requests);

  TestTier tier(4, "soak");
  ASSERT_TRUE(tier.router->wait_healthy(120.0)) << "tier never came up";

  constexpr int kThreads = 8;
  constexpr int kPerThread = 1250;  // 10k total
  std::atomic<int> responses{0};
  std::atomic<int> divergent{0};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      try {
        std::mt19937_64 rng(seed + static_cast<std::uint64_t>(t));
        Client client = tier.client();
        for (int i = 0; i < kPerThread; ++i) {
          const Json& request = requests[rng() % requests.size()];
          const ClientResponse reply = client.call(request);
          if (!reply.ok) {
            failures[t] = reply.raw;
            return;
          }
          if (reply.result_bytes !=
              expected.at(canonical_key(request)))
            divergent.fetch_add(1);
          responses.fetch_add(1);
        }
      } catch (const std::exception& e) {
        failures[t] = e.what();
      }
    });
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], "") << "thread " << t;
  EXPECT_EQ(responses.load(), kThreads * kPerThread);
  EXPECT_EQ(divergent.load(), 0) << "tier responses diverged from the "
                                    "single-process server";

  const Router::Stats stats = tier.router->stats();
  EXPECT_EQ(stats.shed_degraded, 0u) << "healthy tier shed requests";
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_GE(stats.routed, static_cast<std::uint64_t>(requests.size()));
}

TEST(TierChaos, KillNineMidSoakRespawnsReWarmsAndStaysClean) {
  const std::uint64_t seed = test::test_seed(61211);
  const auto requests = unique_requests(200);
  const auto expected = reference_answers(requests);

  TestTier tier(4, "chaos");
  ASSERT_TRUE(tier.router->wait_healthy(120.0)) << "tier never came up";

  // Warm every shard (and the router journal) with one full pass.
  {
    Client client = tier.client();
    for (const Json& request : requests) {
      const ClientResponse reply = client.call(request);
      ASSERT_TRUE(reply.ok) << reply.raw;
    }
  }

  // The victim: whichever worker owns the most keys (maximum blast radius).
  std::vector<std::size_t> owned(tier.router->worker_count(), 0);
  for (const Json& request : requests)
    ++owned[tier.router->worker_for_key(canonical_key(request))];
  const std::size_t victim = static_cast<std::size_t>(
      std::max_element(owned.begin(), owned.end()) - owned.begin());
  ASSERT_GT(owned[victim], 0u);
  const pid_t victim_pid = tier.router->worker_pid(victim);
  ASSERT_GT(victim_pid, 0);
  // The initial spawns count as respawns; a recovery must add one more.
  const std::uint64_t respawns_before = tier.router->stats().respawns;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 400;
  std::atomic<int> ok_responses{0};
  std::atomic<int> clean_sheds{0};
  std::atomic<int> divergent{0};
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      try {
        std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ull *
                                    static_cast<std::uint64_t>(t + 1)));
        Client client = tier.client();
        for (int i = 0; i < kPerThread; ++i) {
          const Json& request = requests[rng() % requests.size()];
          const ClientResponse reply = client.call(request);
          if (reply.ok) {
            if (reply.result_bytes != expected.at(canonical_key(request)))
              divergent.fetch_add(1);
            ok_responses.fetch_add(1);
          } else if (reply.code == "overload") {
            clean_sheds.fetch_add(1);  // degraded shard, clean shed
          } else {
            failures[t] = reply.raw;  // anything else is a protocol break
            return;
          }
        }
      } catch (const std::exception& e) {
        // A transport error would mean the router emitted a malformed or
        // truncated frame — exactly what this harness exists to catch.
        failures[t] = e.what();
      }
    });

  // Mid-soak: hard-kill the victim worker process.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_EQ(::kill(victim_pid, SIGKILL), 0);

  // The router must notice, then respawn a fresh process. Both waits poll
  // for evidence that stays true once it happens: the slot's pid changes
  // only when the router reaps or replaces the victim, whereas an unhealthy
  // window can open and close between two polls.
  EXPECT_TRUE(
      await([&] { return tier.router->worker_pid(victim) != victim_pid; },
            30.0))
      << "router never noticed the kill";
  EXPECT_TRUE(await(
                  [&] {
                    return tier.router->worker_pid(victim) > 0 &&
                           tier.router->worker_healthy(victim) &&
                           tier.router->stats().respawns > respawns_before;
                  },
                  120.0))
      << "router never respawned the worker";
  EXPECT_NE(tier.router->worker_pid(victim), victim_pid);

  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], "") << "thread " << t;
  EXPECT_EQ(divergent.load(), 0);
  EXPECT_GT(ok_responses.load(), 0);

  const Router::Stats stats = tier.router->stats();
  EXPECT_GE(stats.respawns, 1u);
  EXPECT_EQ(stats.bad_requests, 0u);

  // Warm handoff floor: the respawned shard answers its keys from cache.
  // Every victim key was journaled during the warm pass, so the respawn
  // replay should cover nearly all of them; 70% is the regression floor.
  std::size_t victim_keys = 0, victim_hits = 0;
  Client client = tier.client();
  for (const Json& request : requests) {
    const std::string key = canonical_key(request);
    if (tier.router->worker_for_key(key) != victim) continue;
    ++victim_keys;
    const ClientResponse reply = client.call(request);
    ASSERT_TRUE(reply.ok) << reply.raw;
    if (reply.cached) ++victim_hits;
    EXPECT_EQ(reply.result_bytes, expected.at(key));
  }
  ASSERT_GT(victim_keys, 0u);
  const double hit_rate =
      static_cast<double>(victim_hits) / static_cast<double>(victim_keys);
  EXPECT_GE(hit_rate, 0.7)
      << "respawned shard came back cold: " << victim_hits << "/"
      << victim_keys << " cached";
  // Some hits come from post-respawn soak traffic rather than the replay,
  // so only the replay's existence is asserted exactly.
  EXPECT_GE(stats.journal_replayed, 1u);
}

}  // namespace
}  // namespace ftbesst::svc
