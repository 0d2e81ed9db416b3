// Extension bench: prediction-service load generator, as machine-readable
// JSON.
//
// Spins up an in-process Server over a cheap analytic registry (the models
// are constant-time; the ensemble work is real), then measures:
//   - cold latency: distinct simulate requests, each computed from scratch;
//   - hot latency: the same request repeatedly, answered from the sharded
//     result cache (byte-identical to the cold payload by construction);
//   - sustained throughput: client threads issuing a hot/cold mix as fast
//     as the socket allows, plus the server-side cache hit rate.
//
// The headline gate (scripts/check.sh): a cache hit must be at least 100x
// faster than the cold computation it replaces — the entire point of
// keeping a long-running daemon instead of re-invoking the CLI.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "apps/kernels.hpp"
#include "apps/stencil3d.hpp"
#include "common.hpp"
#include "core/arch.hpp"
#include "model/perf_model.hpp"
#include "net/topology.hpp"
#include "svc/client.hpp"
#include "svc/json.hpp"
#include "svc/server.hpp"

using namespace ftbesst;
using bench::Clock;
using bench::seconds_since;

namespace {

constexpr int kColdSamples = 8;
constexpr int kHotSamples = 200;
constexpr int kLoadThreads = 4;
constexpr double kLoadSeconds = 2.0;
constexpr double kRequiredSpeedup = 100.0;

std::shared_ptr<const svc::Registry> make_registry() {
  auto topo = std::make_shared<net::TwoStageFatTree>(8, 8, 4);
  auto arch =
      std::make_shared<core::ArchBEO>("bench", topo, net::CommParams{}, 8);
  arch->bind_kernel(apps::kLuleshTimestep,
                    std::make_shared<model::ConstantModel>(0.01));
  arch->bind_kernel(apps::kStencilSweep,
                    std::make_shared<model::ConstantModel>(0.005));
  for (int level = 1; level <= 4; ++level)
    arch->bind_kernel(
        apps::checkpoint_kernel(static_cast<ft::Level>(level)),
        std::make_shared<model::ConstantModel>(0.002 * level));
  return std::make_shared<const svc::Registry>(
      svc::Registry{std::move(arch)});
}

/// A deliberately heavy request: a faulty ensemble big enough that the cold
/// path costs real milliseconds, so the hot/cold ratio measures the cache,
/// not socket noise.
svc::Json heavy_request(int seed) {
  return svc::JsonObject{{"op", "simulate"},  {"app", "lulesh"},
                         {"epr", 10},         {"ranks", 64},
                         {"timesteps", 400},  {"plan", "L1:20,L4:100"},
                         {"trials", 2000},    {"mtbf_hours", 0.5},
                         {"downtime", 60},    {"seed", seed}};
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main() {
  const std::string socket_path =
      "/tmp/ftbesst-bench-svc-" + std::to_string(::getpid()) + ".sock";
  svc::ServerOptions options;
  options.unix_socket_path = socket_path;
  options.queue_capacity = 256;
  svc::Server server(make_registry(), options);
  server.start();

  bool all_ok = true;
  bool bytes_identical = true;

  // --- cold: distinct requests, computed from scratch ---
  std::vector<double> cold_s;
  {
    svc::Client client = svc::Client::connect_unix(socket_path, 120.0);
    for (int i = 0; i < kColdSamples; ++i) {
      const auto start = Clock::now();
      const svc::ClientResponse reply = client.call(heavy_request(1000 + i));
      cold_s.push_back(seconds_since(start));
      all_ok = all_ok && reply.ok && !reply.cached;
    }
  }

  // --- hot: one request repeatedly, answered from the cache ---
  std::vector<double> hot_s;
  std::string cold_bytes;
  {
    svc::Client client = svc::Client::connect_unix(socket_path, 120.0);
    const svc::Json request = heavy_request(1000);  // already cached above
    for (int i = 0; i < kHotSamples; ++i) {
      const auto start = Clock::now();
      const svc::ClientResponse reply = client.call(request);
      hot_s.push_back(seconds_since(start));
      all_ok = all_ok && reply.ok && reply.cached;
      if (cold_bytes.empty())
        cold_bytes = reply.result_bytes;
      else
        bytes_identical = bytes_identical && reply.result_bytes == cold_bytes;
    }
  }

  // --- sustained mixed load: mostly hot, occasional cold ---
  std::atomic<std::uint64_t> load_requests{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t)
    threads.emplace_back([&, t] {
      svc::Client client = svc::Client::connect_unix(socket_path, 120.0);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // 1 in 16 requests is a fresh key; the rest hit the cache.
        const int seed =
            (i % 16 == 0) ? 5000 + t * 10000 + i : 1000 + (i % kColdSamples);
        const svc::ClientResponse reply = client.call(heavy_request(seed));
        if (reply.ok) load_requests.fetch_add(1, std::memory_order_relaxed);
        ++i;
      }
    });
  const auto load_start = Clock::now();
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kLoadSeconds * 1000)));
  stop.store(true);
  for (auto& thread : threads) thread.join();
  const double load_elapsed = seconds_since(load_start);

  const svc::Server::Stats stats = server.stats();
  server.shutdown();
  server.wait();

  const double cold_ms = median(cold_s) * 1e3;
  const double hot_ms = median(hot_s) * 1e3;
  const double speedup = cold_ms / hot_ms;
  const double req_per_s =
      static_cast<double>(load_requests.load()) / load_elapsed;
  const double hit_rate =
      stats.cache.hits + stats.cache.misses == 0
          ? 0.0
          : static_cast<double>(stats.cache.hits) /
                static_cast<double>(stats.cache.hits + stats.cache.misses);
  const bool pass =
      all_ok && bytes_identical && speedup >= kRequiredSpeedup;

  const svc::Json report = svc::JsonObject{
      {"bench", "svc"},
      {"cold_samples", kColdSamples},
      {"hot_samples", kHotSamples},
      {"cold_latency_ms", cold_ms},
      {"hot_latency_ms", hot_ms},
      {"hot_speedup", speedup},
      {"required_speedup", kRequiredSpeedup},
      {"load_threads", kLoadThreads},
      {"load_seconds", load_elapsed},
      {"req_per_s", req_per_s},
      {"cache_hit_rate", hit_rate},
      {"coalesced", stats.coalesced},
      {"completed", stats.completed},
      {"all_responses_ok", all_ok},
      {"hot_bytes_identical", bytes_identical},
      {"pass", pass}};
  std::cout << report.dump() << "\n";
  return pass ? 0 : 1;
}
