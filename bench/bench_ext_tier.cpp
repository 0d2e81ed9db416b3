// Extension bench: scaled-serving-tier load generator, as machine-readable
// JSON. Three phases, each a check.sh gate:
//
//   1. Saturation scaling — a fixed-service-time workload (the sleep op,
//      20 ms) driven by 16 concurrent connections against a router
//      fronting 1 worker, then N workers. Every worker is pinned to
//      FTBESST_THREADS=2 (the CI box has one core, so the win must come
//      from tier concurrency, not CPU parallelism). Gate: N workers
//      sustain >= 2.5x the single-worker req/s at saturation.
//   2. Byte identity — real predict/simulate requests through the tier
//      must be byte-identical to a single in-process server over the same
//      analytic registry. Gate: zero divergent responses.
//   3. Rolling restart under load — 8 client threads keep driving a warm
//      tier while every worker is restarted one at a time. Gate: zero
//      failed non-shed requests (clean ok/overload only), bounded p99
//      during the restart, and a measurable warm-cache handoff (the
//      restarted shards answer journal-replayed keys from cache).
//
// Workers are real `ftbesst worker` processes (FTBESST_CLI_PATH), the same
// path production `serve --workers N` takes.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/registry.hpp"
#include "svc/router.hpp"
#include "svc/server.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

constexpr int kTierWorkers = 4;
constexpr int kLoadConnections = 16;
constexpr double kSleepMs = 20.0;
constexpr double kSaturationSeconds = 2.0;
constexpr double kRequiredScaling = 2.5;
constexpr int kUniqueRequests = 96;
constexpr int kRestartThreads = 8;
constexpr double kMaxRestartP99Ms = 1000.0;
constexpr double kMinRewarmFraction = 0.5;

std::string socket_base(const char* tag) {
  return "/tmp/ftbesst-bench-tier-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// A router fronting `n` spawned `ftbesst worker --analytic` processes,
/// each pinned to two pool threads.
std::unique_ptr<svc::Router> make_tier(int n, const char* tag) {
  svc::RouterOptions opt;
  opt.unix_socket_path = socket_base(tag);
  opt.health_interval_ms = 100.0;
  opt.worker_grace_s = 10.0;
  for (int i = 0; i < n; ++i) {
    svc::WorkerSpec spec;
    spec.socket_path = opt.unix_socket_path + ".w" + std::to_string(i);
    spec.spawn_argv = {FTBESST_CLI_PATH,
                       "worker",
                       "--socket",
                       spec.socket_path,
                       "--name",
                       "worker-" + std::to_string(i),
                       "--analytic",
                       "1"};
    spec.spawn_env = {"FTBESST_THREADS=2"};
    opt.workers.push_back(std::move(spec));
  }
  auto router = std::make_unique<svc::Router>(std::move(opt));
  router->start();
  if (!router->wait_healthy(120.0)) {
    std::cerr << "tier '" << tag << "' never became healthy\n";
    std::exit(1);
  }
  return router;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1));
  return samples[index];
}

struct LoadResult {
  double req_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
};

/// Drive the sleep op at saturation through `path` for `seconds`.
LoadResult saturate_sleep(const std::string& path, double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0}, errors{0};
  std::vector<std::vector<double>> latencies(kLoadConnections);
  std::vector<std::thread> threads;
  threads.reserve(kLoadConnections);
  const svc::Json request = svc::JsonObject{{"op", "sleep"}, {"ms", kSleepMs}};
  for (int t = 0; t < kLoadConnections; ++t)
    threads.emplace_back([&, t] {
      try {
        svc::Client client = svc::Client::connect_unix(path, 120.0);
        while (!stop.load(std::memory_order_relaxed)) {
          const auto start = Clock::now();
          const svc::ClientResponse reply = client.call(request);
          if (reply.ok) {
            latencies[t].push_back(seconds_since(start) * 1e3);
            completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      } catch (const std::exception&) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  const auto start = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  const double elapsed = seconds_since(start);

  LoadResult result;
  std::vector<double> all;
  for (const auto& lane : latencies)
    all.insert(all.end(), lane.begin(), lane.end());
  result.completed = completed.load();
  result.errors = errors.load();
  result.req_per_s = static_cast<double>(result.completed) / elapsed;
  result.p50_ms = percentile(all, 0.50);
  result.p99_ms = percentile(all, 0.99);
  return result;
}

/// The byte-identity/rolling-restart request mix (cacheable, cheap,
/// deterministic under the analytic registry).
std::vector<svc::Json> unique_requests() {
  std::vector<svc::Json> requests;
  requests.reserve(kUniqueRequests);
  for (int i = 0; i < kUniqueRequests; ++i) {
    if (i % 3 == 0) {
      requests.emplace_back(svc::JsonObject{
          {"op", "predict"},
          {"kernel", "lulesh_timestep"},
          {"params", svc::JsonArray{4 + i % 32, 8 << (i % 4)}}});
    } else {
      requests.emplace_back(svc::JsonObject{{"op", "simulate"},
                                            {"app", "lulesh"},
                                            {"epr", 10},
                                            {"ranks", 64},
                                            {"timesteps", 30},
                                            {"plan", "L1:10"},
                                            {"trials", 2 + i % 3},
                                            {"seed", 7000 + i}});
    }
  }
  return requests;
}

}  // namespace

int main() {
  bool pass = true;
  svc::JsonObject report{{"bench", "tier"}};

  // ------------------------------------------------------------------
  // Phase 1: saturation scaling, 1 worker vs kTierWorkers.
  LoadResult single, scaled;
  {
    auto tier = make_tier(1, "one");
    single = saturate_sleep(socket_base("one"), kSaturationSeconds);
    tier->shutdown();
    tier->wait();
  }
  {
    auto tier = make_tier(kTierWorkers, "many");
    scaled = saturate_sleep(socket_base("many"), kSaturationSeconds);
    tier->shutdown();
    tier->wait();
  }
  const double scaling =
      single.req_per_s > 0.0 ? scaled.req_per_s / single.req_per_s : 0.0;
  const bool scaling_ok = scaling >= kRequiredScaling &&
                          single.errors == 0 && scaled.errors == 0;
  pass = pass && scaling_ok;
  report["saturation"] = svc::JsonObject{
      {"connections", kLoadConnections},
      {"sleep_ms", kSleepMs},
      {"one_worker_req_per_s", single.req_per_s},
      {"one_worker_p50_ms", single.p50_ms},
      {"one_worker_p99_ms", single.p99_ms},
      {"tier_workers", kTierWorkers},
      {"tier_req_per_s", scaled.req_per_s},
      {"tier_p50_ms", scaled.p50_ms},
      {"tier_p99_ms", scaled.p99_ms},
      {"scaling", scaling},
      {"required_scaling", kRequiredScaling},
      {"pass", scaling_ok}};

  // ------------------------------------------------------------------
  // Phase 2 + 3 share one tier.
  const auto requests = unique_requests();

  // Reference answers from a plain in-process server.
  std::vector<std::string> expected(requests.size());
  {
    svc::ServerOptions options;
    options.unix_socket_path = socket_base("ref");
    svc::Server reference(
        std::make_shared<const svc::Registry>(svc::Registry::analytic()),
        options);
    reference.start();
    svc::Client direct =
        svc::Client::connect_unix(options.unix_socket_path, 120.0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const svc::ClientResponse reply = direct.call(requests[i]);
      if (!reply.ok) {
        std::cerr << "reference server failed: " << reply.raw << "\n";
        return 1;
      }
      expected[i] = reply.result_bytes;
    }
    reference.shutdown();
    reference.wait();
  }

  auto tier = make_tier(kTierWorkers, "main");
  const std::string tier_path = socket_base("main");

  std::uint64_t divergent = 0;
  {
    svc::Client client = svc::Client::connect_unix(tier_path, 120.0);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const svc::ClientResponse reply = client.call(requests[i]);
      if (!reply.ok || reply.result_bytes != expected[i]) ++divergent;
    }
  }
  const bool identity_ok = divergent == 0;
  pass = pass && identity_ok;
  report["byte_identity"] = svc::JsonObject{{"requests", requests.size()},
                                            {"divergent", divergent},
                                            {"pass", identity_ok}};

  // ------------------------------------------------------------------
  // Phase 3: rolling restart under live load.
  std::atomic<bool> stop{false};
  std::atomic<bool> restarting{false};
  std::atomic<std::uint64_t> ok_count{0}, shed_count{0}, failed_non_shed{0};
  std::vector<std::vector<double>> restart_latencies(kRestartThreads);
  std::vector<std::thread> threads;
  threads.reserve(kRestartThreads);
  for (int t = 0; t < kRestartThreads; ++t)
    threads.emplace_back([&, t] {
      std::size_t i = static_cast<std::size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          svc::Client client = svc::Client::connect_unix(tier_path, 120.0);
          while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t index = i++ % requests.size();
            const auto start = Clock::now();
            const svc::ClientResponse reply = client.call(requests[index]);
            const double ms = seconds_since(start) * 1e3;
            if (reply.ok) {
              if (reply.result_bytes != expected[index])
                failed_non_shed.fetch_add(1);
              else
                ok_count.fetch_add(1);
              if (restarting.load(std::memory_order_relaxed))
                restart_latencies[t].push_back(ms);
            } else if (reply.code == "overload") {
              shed_count.fetch_add(1);  // clean shed while a shard restarts
            } else {
              failed_non_shed.fetch_add(1);
            }
          }
        } catch (const std::exception&) {
          // A dropped client connection is a protocol failure: the router
          // must stay up and framed throughout the restart.
          failed_non_shed.fetch_add(1);
        }
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto restart_start = Clock::now();
  restarting.store(true);
  const std::uint64_t restarted = tier->rolling_restart();
  restarting.store(false);
  const double restart_seconds = seconds_since(restart_start);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& thread : threads) thread.join();

  // Warm handoff: how many keys the restarted shards answer from cache.
  std::uint64_t rewarmed = 0;
  {
    svc::Client client = svc::Client::connect_unix(tier_path, 120.0);
    for (const svc::Json& request : requests) {
      const svc::ClientResponse reply = client.call(request);
      if (reply.ok && reply.cached) ++rewarmed;
    }
  }
  const double rewarm_fraction =
      static_cast<double>(rewarmed) / static_cast<double>(requests.size());

  std::vector<double> during;
  for (const auto& lane : restart_latencies)
    during.insert(during.end(), lane.begin(), lane.end());
  const double restart_p50 = percentile(during, 0.50);
  const double restart_p99 = percentile(during, 0.99);
  const double restart_req_per_s =
      restart_seconds > 0.0
          ? static_cast<double>(during.size()) / restart_seconds
          : 0.0;

  const svc::Router::Stats stats = tier->stats();
  tier->shutdown();
  tier->wait();

  const bool restart_ok =
      restarted == static_cast<std::uint64_t>(kTierWorkers) &&
      failed_non_shed.load() == 0 && restart_p99 <= kMaxRestartP99Ms &&
      rewarm_fraction >= kMinRewarmFraction && stats.journal_replayed > 0;
  pass = pass && restart_ok;
  report["rolling_restart"] = svc::JsonObject{
      {"workers_restarted", restarted},
      {"restart_seconds", restart_seconds},
      {"req_per_s_during_restart", restart_req_per_s},
      {"p50_ms_during_restart", restart_p50},
      {"p99_ms_during_restart", restart_p99},
      {"max_p99_ms", kMaxRestartP99Ms},
      {"ok", ok_count.load()},
      {"shed_overload", shed_count.load()},
      {"failed_non_shed", failed_non_shed.load()},
      {"journal_replayed", stats.journal_replayed},
      {"rewarm_fraction", rewarm_fraction},
      {"min_rewarm_fraction", kMinRewarmFraction},
      {"pass", restart_ok}};

  report["pass"] = pass;
  std::cout << svc::Json(std::move(report)).dump() << "\n";
  return pass ? 0 : 1;
}
