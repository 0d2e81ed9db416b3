#pragma once
// Shared fixtures for the serving tests (tests/svc/test_server.cpp,
// test_router.cpp and the slow soak binary): the analytic test registry,
// per-process socket paths, an RAII server, an in-process router tier, and
// the canonical simulate request.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/stencil3d.hpp"
#include "core/arch.hpp"
#include "model/perf_model.hpp"
#include "net/topology.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"

namespace ftbesst::svc {

inline std::shared_ptr<const Registry> make_test_registry() {
  // Delegates to the shared analytic registry so the in-process tests, the
  // tier harness, and `ftbesst worker --analytic` all serve byte-identical
  // results from the same models.
  return std::make_shared<const Registry>(Registry::analytic());
}

inline std::string test_socket_path(const char* tag) {
  return "/tmp/ftbesst-test-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// RAII server over the analytic registry: unix socket + ephemeral TCP.
struct TestServer {
  explicit TestServer(ServerOptions options = {}, const char* tag = "srv") {
    options.unix_socket_path = test_socket_path(tag);
    if (options.tcp_port < 0) options.tcp_port = 0;  // ephemeral
    server = std::make_unique<Server>(make_test_registry(), options);
    server->start();
    path = options.unix_socket_path;
  }
  ~TestServer() {
    if (server) {
      server->shutdown();
      server->wait();
    }
  }
  [[nodiscard]] Client client(double timeout_seconds = 30.0) const {
    return Client::connect_unix(path, timeout_seconds);
  }

  std::unique_ptr<Server> server;
  std::string path;
};

/// Router over N externally managed in-process worker Servers. The router
/// health-checks and re-warms them but never spawns; tests kill/revive
/// workers by destroying/recreating the Server objects.
struct TestTierInProcess {
  explicit TestTierInProcess(std::size_t n, RouterOptions opt = {}) {
    registry = make_test_registry();
    opt.unix_socket_path = test_socket_path("router");
    opt.health_interval_ms = 50.0;   // fast revive for tests
    opt.worker_timeout_s = 30.0;
    for (std::size_t i = 0; i < n; ++i) {
      WorkerSpec spec;
      spec.socket_path = worker_socket(i);
      opt.workers.push_back(spec);  // spawn_argv empty: externally managed
      start_worker(i);
    }
    router = std::make_unique<Router>(std::move(opt));
    router->start();
    EXPECT_TRUE(router->wait_healthy(30.0));
  }

  ~TestTierInProcess() {
    if (router) {
      router->shutdown();
      router->wait();
    }
    stop_all_workers();
  }

  [[nodiscard]] static std::string worker_socket(std::size_t i) {
    return test_socket_path(("rw" + std::to_string(i)).c_str());
  }

  void start_worker(std::size_t i) {
    ServerOptions wopt;
    wopt.unix_socket_path = worker_socket(i);
    wopt.name = "worker-" + std::to_string(i);
    auto worker = std::make_unique<Server>(registry, wopt);
    worker->start();
    if (workers.size() <= i) workers.resize(i + 1);
    workers[i] = std::move(worker);
  }

  void stop_worker(std::size_t i) {
    if (workers.size() > i && workers[i]) {
      workers[i]->shutdown();
      workers[i]->wait();
      workers[i].reset();
    }
  }

  void stop_all_workers() {
    for (std::size_t i = 0; i < workers.size(); ++i) stop_worker(i);
  }

  [[nodiscard]] Client client(double timeout = 30.0) const {
    return Client::connect_unix(router_path(), timeout);
  }
  [[nodiscard]] std::string router_path() const {
    return test_socket_path("router");
  }

  /// Wait until the router's view of worker i reaches `healthy`.
  [[nodiscard]] bool await_health(std::size_t i, bool healthy,
                                  double timeout_s = 20.0) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (router->worker_healthy(i) != healthy) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
  }

  std::shared_ptr<const Registry> registry;
  std::vector<std::unique_ptr<Server>> workers;
  std::unique_ptr<Router> router;
};

inline Json simulate_request(int seed, int trials = 5) {
  return Json::parse(
      "{\"op\":\"simulate\",\"app\":\"lulesh\",\"epr\":10,\"ranks\":64,"
      "\"timesteps\":30,\"plan\":\"L1:10\",\"trials\":" +
      std::to_string(trials) + ",\"seed\":" + std::to_string(seed) + "}");
}

}  // namespace ftbesst::svc
