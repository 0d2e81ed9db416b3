#include "svc/server.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "server_test_util.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"

namespace ftbesst::svc {
namespace {

TEST(Server, AnswersOverUnixAndTcp) {
  TestServer ts({}, "both");
  Client ux = ts.client();
  const ClientResponse pong = ux.call(Json::parse("{\"op\":\"ping\"}"));
  ASSERT_TRUE(pong.ok) << pong.raw;
  EXPECT_TRUE(pong.result.find("pong")->as_bool());

  ASSERT_GT(ts.server->tcp_port(), 0);
  Client tcp = Client::connect_tcp(ts.server->tcp_port(), 30.0);
  const ClientResponse reply = tcp.call(simulate_request(1));
  ASSERT_TRUE(reply.ok) << reply.raw;
  EXPECT_FALSE(reply.cached);
}

TEST(Server, CacheHitsAreByteIdentical) {
  TestServer ts({}, "bytes");
  Client client = ts.client();
  const ClientResponse cold = client.call(simulate_request(7));
  ASSERT_TRUE(cold.ok) << cold.raw;
  EXPECT_FALSE(cold.cached);
  // Same request, different spelling/volatile fields: served from cache,
  // result bytes identical to the cold computation's.
  const ClientResponse hot = client.call(Json::parse(
      "{\"seed\":7,\"trials\":5,\"plan\":\"L1:10\",\"timesteps\":30,"
      "\"ranks\":64,\"epr\":10,\"app\":\"lulesh\",\"op\":\"simulate\","
      "\"id\":\"whatever\",\"deadline_ms\":60000}"));
  ASSERT_TRUE(hot.ok) << hot.raw;
  EXPECT_TRUE(hot.cached);
  EXPECT_EQ(hot.result_bytes, cold.result_bytes);
  EXPECT_GE(ts.server->stats().cache.hits, 1u);
}

TEST(Server, ConcurrentIdenticalColdRequestsCoalesceOrHit) {
  TestServer ts({}, "flight");
  constexpr int kThreads = 8;
  // Heavy enough that the followers arrive while the leader still computes.
  const Json request = simulate_request(31337, /*trials=*/20000);
  std::atomic<bool> go{false};
  std::vector<std::string> bytes(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Client client = ts.client(120.0);
      while (!go.load()) std::this_thread::yield();
      const ClientResponse reply = client.call(request);
      ASSERT_TRUE(reply.ok) << reply.raw;
      bytes[t] = reply.result_bytes;
    });
  go.store(true);
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(bytes[t], bytes[0]);
  // The expensive ensemble ran far fewer than kThreads times: every
  // duplicate either coalesced onto the in-flight computation or hit the
  // cache afterwards.
  const Server::Stats stats = ts.server->stats();
  EXPECT_GE(stats.coalesced + stats.cache.hits,
            static_cast<std::uint64_t>(kThreads - 2));
}

TEST(Server, QueueFullGetsExplicitOverloadRejection) {
  ServerOptions options;
  options.queue_capacity = 2;
  TestServer ts(options, "overload");

  // Two sleeps occupy the entire admission budget...
  std::vector<std::thread> sleepers;
  for (int t = 0; t < 2; ++t)
    sleepers.emplace_back([&] {
      Client client = ts.client();
      const ClientResponse reply =
          client.call(Json::parse("{\"op\":\"sleep\",\"ms\":600}"));
      EXPECT_TRUE(reply.ok) << reply.raw;
    });
  // ... give them time to be admitted, then a third request must be shed
  // immediately — an explicit rejection, not a stall.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Client client = ts.client();
  const auto t0 = std::chrono::steady_clock::now();
  const ClientResponse rejected = client.call(Json::parse("{\"op\":\"ping\"}"));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(rejected.ok);
  EXPECT_EQ(rejected.code, "overload") << rejected.raw;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            300);  // rejected while the sleeps still run
  for (auto& thread : sleepers) thread.join();

  // Capacity freed: the same connection works again.
  const ClientResponse accepted = client.call(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(accepted.ok) << accepted.raw;
  EXPECT_GE(ts.server->stats().rejected_overload, 1u);
}

TEST(Server, StatsOpReportsCounters) {
  TestServer ts({}, "stats");
  Client client = ts.client();
  ASSERT_TRUE(client.call(simulate_request(9)).ok);
  ASSERT_TRUE(client.call(simulate_request(9)).cached);
  const ClientResponse reply = client.call(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(reply.ok) << reply.raw;
  EXPECT_GE(reply.result.find("completed")->as_number(), 2.0);
  EXPECT_EQ(reply.result.find("cache")->find("hits")->as_number(), 1.0);
  EXPECT_EQ(reply.result.find("queue_capacity")->as_number(), 64.0);
  // Constant backend keys, kept for wire compatibility.
  EXPECT_EQ(reply.result.find("eval_backend")->as_string(), "scalar");
  ASSERT_NE(reply.result.find("avx2_supported"), nullptr);
  EXPECT_FALSE(reply.result.find("avx2_supported")->as_bool());
}

TEST(Server, ShutdownOpDrainsInFlightWorkThenStops) {
  auto ts = std::make_unique<TestServer>(ServerOptions{}, "shutdown-op");
  // An in-flight sleep must still be answered after shutdown is requested.
  std::thread sleeper([&] {
    Client client = ts->client();
    const ClientResponse reply =
        client.call(Json::parse("{\"op\":\"sleep\",\"ms\":400}"));
    EXPECT_TRUE(reply.ok) << reply.raw;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client client = ts->client();
  const ClientResponse ack = client.call(Json::parse("{\"op\":\"shutdown\"}"));
  ASSERT_TRUE(ack.ok) << ack.raw;
  EXPECT_TRUE(ack.result.find("draining")->as_bool());

  ts->server->wait();  // returns once drained; the sleeper got its reply
  sleeper.join();
  EXPECT_THROW((void)Client::connect_unix(ts->path, 1.0), std::system_error);
  ts.reset();
}

TEST(Server, SigtermDrainsAndStopsCleanly) {
  auto ts = std::make_unique<TestServer>(ServerOptions{}, "sigterm");
  Server::install_signal_handlers(ts->server.get());
  {
    Client client = ts->client();
    ASSERT_TRUE(client.call(Json::parse("{\"op\":\"ping\"}")).ok);
  }
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);
  ts->server->wait();  // the handler triggered a graceful drain
  Server::install_signal_handlers(nullptr);
  ts.reset();  // double-shutdown in the destructor must be harmless
}

TEST(Server, FailedStartLeavesTheServerInertInsteadOfHanging) {
  // A start() that throws must not leave started_ set with no loop thread
  // running — the destructor (and wait()) would then block forever on
  // stop_cv_, turning a startup error into a process hang.
  ServerOptions options;
  options.unix_socket_path = std::string(200, 'x');  // exceeds sun_path
  Server server(make_test_registry(), options);
  EXPECT_THROW(server.start(), std::invalid_argument);
  // Scope exit: the destructor must return immediately.
}

TEST(Server, StartFailureOnBusyTcpPortThrowsCleanly) {
  TestServer ts({}, "busytcp");
  ASSERT_GT(ts.server->tcp_port(), 0);
  ServerOptions options;
  options.tcp_port = ts.server->tcp_port();
  Server second(make_test_registry(), options);
  EXPECT_THROW(second.start(), std::system_error);
  // The first server is unaffected.
  EXPECT_TRUE(ts.client().call(Json::parse("{\"op\":\"ping\"}")).ok);
}

TEST(Server, RefusesToStealALiveServersSocketPath) {
  TestServer ts({}, "steal");
  ServerOptions options;
  options.unix_socket_path = ts.path;
  {
    Server thief(make_test_registry(), options);
    EXPECT_THROW(thief.start(), std::system_error);
  }
  // The live server's socket file was not unlinked: clients still connect.
  EXPECT_TRUE(ts.client().call(Json::parse("{\"op\":\"ping\"}")).ok);
}

TEST(Server, ReplacesAStaleSocketFileFromACrash) {
  const std::string path = test_socket_path("stale");
  {
    std::ofstream stale(path);  // leftover path, nothing answering on it
    stale << "stale";
  }
  ServerOptions options;
  options.unix_socket_path = path;
  Server server(make_test_registry(), options);
  server.start();
  Client client = Client::connect_unix(path, 30.0);
  EXPECT_TRUE(client.call(Json::parse("{\"op\":\"ping\"}")).ok);
  server.shutdown();
  server.wait();
}

// ---------------------------------------------------------------------------
// Front-end contract: the same bodies run against both compositions of the
// serving front-end, the single-process Server and a Router over one
// in-process worker Server.

enum class Composition { kServer, kRouter };

// Names each instance in test output and ctest (".../Server").
void PrintTo(Composition composition, std::ostream* os) {
  *os << (composition == Composition::kServer ? "Server" : "Router");
}

/// The front-end under test. `options` carries the front-end settings
/// (admission, deadlines, frame cap); the Router composition copies them
/// onto its RouterOptions and runs its worker with defaults.
struct TestFront {
  TestFront(Composition composition, ServerOptions options, const char* tag) {
    if (composition == Composition::kServer) {
      server = std::make_unique<TestServer>(options, tag);
      return;
    }
    RouterOptions router;
    router.queue_capacity = options.queue_capacity;
    router.default_deadline_ms = options.default_deadline_ms;
    router.read_deadline_ms = options.read_deadline_ms;
    router.max_frame_bytes = options.max_frame_bytes;
    tier = std::make_unique<TestTierInProcess>(1, router);
  }

  [[nodiscard]] Frontend& front() const {
    if (server) return *server->server;
    return *tier->router;
  }
  [[nodiscard]] Client client(double timeout_seconds = 30.0) const {
    return server ? server->client(timeout_seconds)
                  : tier->client(timeout_seconds);
  }
  /// Where a computed result lands: the server's cache, or the router's
  /// one (owning) worker's.
  [[nodiscard]] const ResultCache& cache() const {
    return server ? server->server->cache() : tier->workers[0]->cache();
  }

  std::unique_ptr<TestServer> server;
  std::unique_ptr<TestTierInProcess> tier;
};

class FrontendContract : public ::testing::TestWithParam<Composition> {};

INSTANTIATE_TEST_SUITE_P(Compositions, FrontendContract,
                         ::testing::Values(Composition::kServer,
                                           Composition::kRouter));

TEST_P(FrontendContract, OversizedFramesAreRejected) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  TestFront ts(GetParam(), options, "oversize");
  Client client = ts.client();
  const ClientResponse reply =
      client.call_raw(std::string(1000, 'x'), /*max_frame_bytes=*/4096);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "bad_request");
  EXPECT_GE(ts.front().stats().bad_requests, 1u);
}

TEST_P(FrontendContract, SlowlorisPartialFrameIsTimedOutNotHeldForever) {
  // Regression for the single-reader wart: a client that writes a frame
  // header and then stalls used to hold its connection (and its admission
  // slot candidacy) indefinitely. With a read deadline the server answers
  // read_timeout and closes.
  ServerOptions options;
  options.read_deadline_ms = 200.0;
  TestFront ts(GetParam(), options, "slowloris");

  Client slow = ts.client();
  unsigned char header[4];
  encode_length(64, header);  // promises 64 bytes that never arrive
  ASSERT_EQ(::send(slow.fd(), header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  const auto started = std::chrono::steady_clock::now();
  const auto reply = read_frame(slow.fd(), kMaxFrameBytes);
  const auto waited = std::chrono::steady_clock::now() - started;
  ASSERT_TRUE(reply.has_value()) << "closed without the courtesy reply";
  const Json envelope = Json::parse(*reply);
  EXPECT_EQ(envelope.string_or("code", ""), "read_timeout") << *reply;
  EXPECT_LT(waited, std::chrono::seconds(10));
  // The connection is closed after the reply: the next read sees EOF.
  EXPECT_FALSE(read_frame(slow.fd(), kMaxFrameBytes).has_value());

  // A well-behaved client on the same server is unaffected.
  Client ok = ts.client();
  const ClientResponse pong = ok.call(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.ok) << pong.raw;

  const auto stats = ts.front().stats();
  EXPECT_GE(stats.read_timeouts, 1u);
}

TEST_P(FrontendContract, PartialFramesAreNotTimedOutWhenDeadlineDisabled) {
  // read_deadline_ms = 0 (off)
  TestFront ts(GetParam(), {}, "noslowdeadline");
  Client slow = ts.client(2.0);
  unsigned char header[4];
  encode_length(64, header);
  ASSERT_EQ(::send(slow.fd(), header, sizeof header, 0),
            static_cast<ssize_t>(sizeof header));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Completing the frame late still works: no deadline means no sweep.
  const std::string body =
      "{\"id\":\"" + std::string(43, 'x') + "\",\"op\":\"ping\"}";
  ASSERT_EQ(body.size(), 64u);
  ASSERT_EQ(::send(slow.fd(), body.data(), body.size(), 0),
            static_cast<ssize_t>(body.size()));
  const auto reply = read_frame(slow.fd(), kMaxFrameBytes);
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(Json::parse(*reply).bool_or("ok", false)) << *reply;
}

TEST_P(FrontendContract, RequestsDuringDrainAreRejectedAsShuttingDown) {
  ServerOptions options;
  TestFront ts(GetParam(), options, "draining");
  Client busy = ts.client();
  Client probe = ts.client();  // connect BEFORE the listeners close

  std::thread sleeper([&] {
    (void)busy.call(Json::parse("{\"op\":\"sleep\",\"ms\":600}"));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ts.front().shutdown();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const ClientResponse reply = probe.call(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "shutting_down") << reply.raw;
  sleeper.join();
  EXPECT_GE(ts.front().stats().rejected_shutdown, 1u);
}

TEST_P(FrontendContract, MalformedRequestsGetBadRequestEnvelopes) {
  TestFront ts(GetParam(), {}, "bad");
  Client client = ts.client();

  ClientResponse reply = client.call_raw("this is not json");
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "bad_request");

  reply = client.call_raw("[1,2,3]");  // valid JSON, not an object
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "bad_request");

  reply = client.call(Json::parse("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "bad_request");
  EXPECT_NE(reply.error.find("frobnicate"), std::string::npos);
  EXPECT_NE(reply.error.find("simulate"), std::string::npos);  // lists ops

  reply = client.call(Json::parse("{\"op\":\"simulate\",\"plan\":\"L9:4\"}"));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "bad_request");

  // The connection survived all of it.
  EXPECT_TRUE(client.call(Json::parse("{\"op\":\"ping\"}")).ok);
  EXPECT_GE(ts.front().stats().bad_requests, 4u);
}

TEST_P(FrontendContract, ExpiredDeadlineIsRejectedWithoutComputing) {
  TestFront ts(GetParam(), {}, "deadline");
  Client client = ts.client();
  // A deadline of 100ns has always already expired by the time a worker
  // picks the request up; the reply must be the deadline error, and the
  // simulate must never run (nothing enters the cache).
  Json request = simulate_request(5);
  request.as_object()["deadline_ms"] = Json(0.0001);
  const ClientResponse reply = client.call(request);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(reply.code, "deadline") << reply.raw;
  EXPECT_EQ(ts.cache().stats().entries, 0u);
  EXPECT_GE(ts.front().stats().rejected_deadline, 1u);
}

}  // namespace
}  // namespace ftbesst::svc
