// In-process router tests: consistent-hash routing, single-flight
// coalescing, degraded-shard shedding, and journal-driven warm handoff —
// all against externally managed in-process worker Servers, so the fast suite
// exercises the tier without spawning processes (the process-level
// soak/chaos harness lives in test_tier_slow.cpp).

#include "svc/router.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "server_test_util.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/registry.hpp"

namespace ftbesst::svc {
namespace {

/// A simulate request whose canonical key lands on worker `target` of the
/// tier's ring (found by scanning seeds).
Json request_for_worker(const Router& router, std::size_t target,
                        int salt = 0) {
  for (int seed = salt * 1000; seed < salt * 1000 + 1000; ++seed) {
    Json request = simulate_request(seed, 3);
    if (router.worker_for_key(canonical_key(request)) == target)
      return request;
  }
  ADD_FAILURE() << "no seed in range maps to worker " << target;
  return simulate_request(0, 3);
}

TEST(Router, ProxiesToShardsWithByteIdenticalReplies) {
  TestTierInProcess tier(3);
  // Reference: the same registry served by a plain in-process server.
  TestServer reference({}, "ref");

  Client via_tier = tier.client();
  Client direct = reference.client();
  for (int seed = 0; seed < 8; ++seed) {
    const Json request = simulate_request(seed, 3);
    const ClientResponse tiered = via_tier.call(request);
    const ClientResponse single = direct.call(request);
    ASSERT_TRUE(tiered.ok) << tiered.raw;
    ASSERT_TRUE(single.ok) << single.raw;
    // The tier forwards reply bytes verbatim, so modulo the cached flag the
    // result bytes are identical to a single process's.
    EXPECT_EQ(tiered.result_bytes, single.result_bytes) << "seed " << seed;
  }
  const auto stats = tier.router->stats();
  EXPECT_GE(stats.routed, 8u);
  EXPECT_EQ(stats.shed_degraded, 0u);
}

TEST(Router, RepeatRequestsHitTheOwningShardsCache) {
  TestTierInProcess tier(3);
  Client client = tier.client();
  const Json request = simulate_request(77, 3);
  const ClientResponse cold = client.call(request);
  ASSERT_TRUE(cold.ok) << cold.raw;
  EXPECT_FALSE(cold.cached);
  const ClientResponse hot = client.call(request);
  ASSERT_TRUE(hot.ok) << hot.raw;
  EXPECT_TRUE(hot.cached);  // routing purity: same key -> same shard
  EXPECT_EQ(cold.result_bytes, hot.result_bytes);
}

TEST(Router, ConcurrentIdenticalColdRequestsCoalesce) {
  TestTierInProcess tier(2);
  const Json request = simulate_request(991, 4);
  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::vector<std::string> results(kClients);
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i)
    threads.emplace_back([&, i] {
      Client client = tier.client();
      const ClientResponse reply = client.call(request);
      ASSERT_TRUE(reply.ok) << reply.raw;
      results[i] = reply.result_bytes;
    });
  for (auto& t : threads) t.join();
  for (int i = 1; i < kClients; ++i) EXPECT_EQ(results[i], results[0]);
  // Leader + followers + later cache hits never exceed one computation;
  // coalesced + cache-hit counts are environment-timing dependent, but the
  // tier must have answered all clients.
  EXPECT_GE(tier.router->stats().completed, static_cast<std::uint64_t>(
                                                kClients));
}

TEST(Router, DeadShardShedsCleanlyAndOthersKeepServing) {
  TestTierInProcess tier(3);
  const Json doomed = request_for_worker(*tier.router, 0);
  const Json healthy = request_for_worker(*tier.router, 1);

  tier.stop_worker(0);
  ASSERT_TRUE(tier.await_health(0, false)) << "router never noticed death";

  Client client = tier.client();
  const ClientResponse shed = client.call(doomed);
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.code, "overload") << shed.raw;  // clean shed, not a hang

  const ClientResponse served = client.call(healthy);
  EXPECT_TRUE(served.ok) << served.raw;  // rest of the ring untouched
  EXPECT_GE(tier.router->stats().shed_degraded, 1u);
}

TEST(Router, RevivedShardIsReWarmedFromTheJournal) {
  TestTierInProcess tier(3);
  const Json request = request_for_worker(*tier.router, 2);

  {
    Client client = tier.client();
    const ClientResponse cold = client.call(request);
    ASSERT_TRUE(cold.ok) << cold.raw;
    ASSERT_FALSE(cold.cached);
  }
  ASSERT_GE(tier.router->journal().entries(), 1u);

  // Kill the shard, bring up a REPLACEMENT with an empty cache on the same
  // socket, and let the supervisor revive + re-warm it.
  tier.stop_worker(2);
  ASSERT_TRUE(tier.await_health(2, false));
  tier.start_worker(2);
  ASSERT_TRUE(tier.await_health(2, true)) << "supervisor never revived";

  Client client = tier.client();
  const ClientResponse hot = client.call(request);
  ASSERT_TRUE(hot.ok) << hot.raw;
  // Warm handoff: the fresh worker answers from cache without recomputing.
  EXPECT_TRUE(hot.cached) << hot.raw;
  EXPECT_GE(tier.router->stats().journal_replayed, 1u);
}

TEST(Router, StatsPingAndBadRequestsWorkAtTheTierFront) {
  TestTierInProcess tier(2);
  Client client = tier.client();

  const ClientResponse pong = client.call(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.ok) << pong.raw;

  const ClientResponse stats = client.call(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok) << stats.raw;
  EXPECT_EQ(stats.result.string_or("role", ""), "router");
  EXPECT_EQ(stats.result.number_or("workers", 0), 2.0);

  const ClientResponse garbage = client.call_raw("not json at all");
  EXPECT_FALSE(garbage.ok);
  EXPECT_EQ(garbage.code, "bad_request");

  const ClientResponse unknown =
      client.call(Json::parse("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.code, "bad_request");

  // `warm` stays tier-internal: clients cannot poison worker caches
  // through the front door.
  const ClientResponse warm = client.call(
      Json::parse("{\"op\":\"warm\",\"entries\":[]}"));
  EXPECT_FALSE(warm.ok);
  EXPECT_EQ(warm.code, "bad_request");
}

TEST(Router, ShutdownDrainsAndRejectsLateArrivals) {
  auto tier = std::make_unique<TestTierInProcess>(2);
  const std::string path = tier->router_path();
  Client client = tier->client();
  const ClientResponse ack = client.call(Json::parse("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(ack.ok) << ack.raw;
  tier->router->wait();
  // Socket gone after drain: connecting now must fail.
  EXPECT_THROW((void)Client::connect_unix(path, 1.0), std::system_error);
  tier.reset();
}

TEST(Router, SleepOpRoundRobinsAcrossHealthyWorkers) {
  TestTierInProcess tier(2);
  Client client = tier.client();
  for (int i = 0; i < 4; ++i) {
    const ClientResponse reply =
        client.call(Json::parse("{\"op\":\"sleep\",\"ms\":1}"));
    EXPECT_TRUE(reply.ok) << reply.raw;
  }
}

TEST(Router, RejectsCollidingWorkerAndRouterSockets) {
  RouterOptions opt;
  opt.unix_socket_path = "/tmp/ftbesst-collide.sock";
  WorkerSpec spec;
  spec.socket_path = opt.unix_socket_path;
  opt.workers.push_back(spec);
  EXPECT_THROW(Router{std::move(opt)}, std::invalid_argument);
}

}  // namespace
}  // namespace ftbesst::svc
