// serve_mixed: real traffic through the scaled serving tier. An in-process
// svc::Router fronts two spawned `ftbesst worker` processes that load the
// calibrated case-study models; two closed-loop clients send a seeded mix
// of predict / simulate / inject (BSP) / search / dse requests in which
// most requests repeat a recent one, so the median lands on cache hits and
// the tail on cold computes. Every reply's result bytes are checked
// against svc::handle_request run in this process over the same saved
// models, after the tier has stopped.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.hpp"
#include "harness.hpp"
#include "obs/metrics.hpp"
#include "svc/client.hpp"
#include "svc/registry.hpp"
#include "svc/router.hpp"
#include "util/task_pool.hpp"

namespace perfbench {
namespace {

using namespace ftbesst;

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kClients = 2;
/// Result cache per worker. The hot set (the last kHotRounds rounds' fresh
/// requests) takes well under 1 MiB, so this keeps every repeat a hit
/// while the cache, and with it each worker's resident set, stops growing
/// after the first seconds instead of growing with the run's throughput.
constexpr int kWorkerCacheMb = 2;

// One round of the mix: kRoundLen requests, of which the kFresh at the
// fixed slots below are new distinct requests and the rest repeat a
// distinct request of the previous kHotRounds rounds (cache hits, or
// coalesced followers while the original is still computing).
constexpr std::uint64_t kRoundLen = 40;
constexpr std::uint64_t kHotRounds = 4;
enum OpType : std::size_t { kPredict, kPoints, kSimulate, kInject, kSearch,
                            kDse, kOpTypes };
constexpr const char* kOpNames[kOpTypes] = {"predict", "predict", "simulate",
                                            "inject",  "search",  "dse"};
constexpr std::uint64_t kFreshSlots[kOpTypes] = {0, 7, 13, 20, 27, 33};

/// Seeds travel as JSON numbers (doubles): keep them exactly representable.
std::uint64_t json_seed(std::uint64_t x) { return x & ((1ull << 52) - 1); }

/// The seeded request sequence. Request i is a pure function of
/// (workload seed, i), so every run with the same seed sends the same mix.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) : seed_(seed) {}

  /// Distinct-request id of sequence position i.
  [[nodiscard]] std::uint64_t id_at(std::uint64_t i) const {
    const std::uint64_t round = i / kRoundLen;
    const std::uint64_t slot = i % kRoundLen;
    for (std::size_t j = 0; j < kOpTypes; ++j)
      if (slot == kFreshSlots[j]) return round * kOpTypes + j;
    const std::uint64_t r = mix(seed_ ^ mix(i + 0x5eed));
    const std::uint64_t back = 1 + r % kHotRounds;
    if (back > round) return round * kOpTypes + kPredict;  // slot 0 precedes
    return (round - back) * kOpTypes + (r >> 16) % kOpTypes;
  }

  [[nodiscard]] static std::size_t type_of(std::uint64_t id) {
    return id % kOpTypes;
  }

  /// Request bytes of a distinct-request id.
  [[nodiscard]] std::string request(std::uint64_t id) const {
    const std::uint64_t r = mix(seed_ ^ mix(id + 0xd15c));
    const std::string seed = std::to_string(json_seed(mix(r)));
    static const int kEprs[] = {5, 10, 15, 20, 25};
    static const int kRanks[] = {64, 216, 512, 1000};
    const std::string epr = std::to_string(kEprs[r % 5]);
    const std::string ranks = std::to_string(kRanks[(r >> 8) % 4]);
    // Continuous model inputs make every predict a distinct cache key.
    const auto param = [&](int shift, double lo, double span) {
      return std::to_string(lo + span * static_cast<double>((r >> shift) &
                                                           0xffff) /
                                        65536.0);
    };
    const std::string grid =
        "\"app\":\"lulesh\",\"scenarios\":[{\"name\":\"No FT\",\"plan\":\"\"},"
        "{\"name\":\"L1\",\"plan\":\"L1:40\"},"
        "{\"name\":\"L1 & L2\",\"plan\":\"L1:40,L2:40\"}],"
        "\"eprs\":[5,10,15,20,25],\"ranks\":[8,64,216,512,1000]";
    switch (type_of(id)) {
      case kPredict:
        return "{\"op\":\"predict\",\"kernel\":\"lulesh_timestep\",\"params\":[" +
               param(0, 5, 20) + "," + param(16, 8, 992) + "]}";
      case kPoints: {
        std::string points;
        for (int p = 0; p < 16; ++p) {
          const std::uint64_t q = mix(r + static_cast<std::uint64_t>(p));
          points += (p ? ",[" : "[") +
                    std::to_string(5 + 20 * static_cast<double>(q & 0xffff) /
                                           65536.0) +
                    "," + std::to_string(8 + (q >> 16) % 993) + "]";
        }
        return "{\"op\":\"predict\",\"kernel\":\"ckpt_l2\",\"points\":[" +
               points + "]}";
      }
      case kSimulate:
        return "{\"op\":\"simulate\",\"app\":\"lulesh\",\"epr\":" + epr +
               ",\"ranks\":" + ranks +
               ",\"timesteps\":100,\"plan\":\"L1:40\",\"trials\":30,"
               "\"seed\":" + seed + "}";
      case kInject:
        return "{\"op\":\"inject\",\"app\":\"lulesh\",\"epr\":" + epr +
               ",\"ranks\":" + ranks +
               ",\"timesteps\":100,\"plan\":\"L1:10,L2:20\",\"trials\":16,"
               "\"mtbf_hours\":2,\"downtime\":5,\"use_des\":0,\"seed\":" +
               seed + "}";
      case kSearch:
        return "{\"op\":\"search\"," + grid +
               ",\"timesteps\":100,\"trials\":8,\"budget_fraction\":0.1,"
               "\"top_k\":3,\"seed\":" + seed + "}";
      default:
        return "{\"op\":\"dse\"," + grid +
               ",\"timesteps\":100,\"trials\":8,\"top_k\":5,\"seed\":" + seed +
               "}";
    }
  }

 private:
  std::uint64_t seed_;
};

struct Reply {
  std::uint64_t id = 0;
  std::uint64_t digest = 0;  ///< Digest of the result bytes
  double ms = 0.0;
  bool ok = false;
  bool cached = false;
};

struct Phase {
  std::vector<Reply> replies;
  double wall = 0.0;
};

std::vector<double> latencies(const Phase& phase) {
  std::vector<double> ms;
  ms.reserve(phase.replies.size());
  for (const Reply& r : phase.replies) ms.push_back(r.ms);
  return ms;
}

/// Closed loop: each client sends its next request when the previous reply
/// arrived. Runs whole rounds, starting at sequence position `*next`, for
/// at least `seconds`, extended (up to 4x) until at least `min_ops`
/// replies arrived.
Phase drive(const Mix& mix, std::vector<svc::Client>& clients,
            std::uint64_t* next, double seconds, std::size_t min_ops = 0) {
  Phase phase;
  std::atomic<std::uint64_t> cursor{*next};
  std::atomic<std::uint64_t> limit{~0ull};
  std::atomic<std::uint64_t> done{0};
  std::mutex merge_mutex;
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  for (svc::Client& client : clients)
    threads.emplace_back([&, client_ptr = &client] {
      std::vector<Reply> replies;
      for (;;) {
        const std::uint64_t i = cursor.fetch_add(1);
        if (i >= limit.load()) break;
        Reply reply;
        reply.id = mix.id_at(i);
        const std::string request = mix.request(reply.id);
        const auto sent = Clock::now();
        try {
          obs::Span span("svc.client.call");
          const svc::ClientResponse response = client_ptr->call_raw(request);
          reply.ms = seconds_since(sent) * 1e3;
          reply.ok = response.ok;
          reply.cached = response.cached;
          reply.digest = Digest().bytes(response.result_bytes).value();
        } catch (const std::exception& e) {
          reply.ms = seconds_since(sent) * 1e3;
          std::cerr << "ftbench: request failed: " << e.what() << "\n";
        }
        replies.push_back(reply);
        done.fetch_add(1);
      }
      const std::lock_guard<std::mutex> lock(merge_mutex);
      phase.replies.insert(phase.replies.end(), replies.begin(),
                           replies.end());
    });
  while (seconds_since(start) < seconds ||
         (done.load() < min_ops && seconds_since(start) < 4.0 * seconds))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Finish the round in progress so every phase holds whole rounds.
  const std::uint64_t reached = cursor.load();
  limit.store((reached + kRoundLen - 1) / kRoundLen * kRoundLen);
  for (std::thread& t : threads) t.join();
  phase.wall = seconds_since(start);
  *next = limit.load();
  return phase;
}

double worker_peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

struct TierStats {
  svc::Router::Stats router;
  std::map<std::string, double> workers;  ///< summed worker stats fields
};

TierStats tier_stats(svc::Router& router, const std::string& socket) {
  TierStats stats;
  stats.router = router.stats();
  svc::Client client = svc::Client::connect_unix(socket, 30.0);
  const svc::ClientResponse reply = client.call_raw("{\"op\":\"stats\"}");
  if (!reply.ok) throw std::runtime_error("router stats op failed");
  const svc::Json* workers = reply.result.find("worker_stats");
  if (!workers) throw std::runtime_error("router stats lack worker_stats");
  for (const svc::Json& w : workers->as_array()) {
    const svc::Json* s = w.find("stats");
    if (!s || !s->is_object())
      throw std::runtime_error("a worker did not report stats");
    for (const char* field : {"coalesced", "search_warm_hits",
                              "search_evaluations", "searches"})
      stats.workers[field] += s->number_or(field, 0.0);
    const svc::Json* cache = s->find("cache");
    if (!cache) throw std::runtime_error("worker stats lack cache");
    for (const char* field : {"hits", "misses", "evictions"})
      stats.workers[std::string("cache.") + field] +=
          cache->number_or(field, 0.0);
  }
  return stats;
}

/// Router over kWorkers spawned `ftbesst worker` processes loading the
/// saved models, each pinned to `worker_threads` pool threads.
std::unique_ptr<svc::Router> start_tier(const std::string& socket,
                                        const std::string& models,
                                        unsigned worker_threads) {
  svc::RouterOptions opt;
  opt.unix_socket_path = socket;
  opt.readers = kClients;
  opt.proxy_threads = 2 * kClients;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    svc::WorkerSpec spec;
    spec.socket_path = socket + ".w" + std::to_string(i);
    spec.spawn_argv = {FTBESST_CLI_PATH, "worker", "--socket",
                       spec.socket_path, "--name",
                       "worker-" + std::to_string(i), "--models", models,
                       "--cache-mb", std::to_string(kWorkerCacheMb)};
    spec.spawn_env = {"FTBESST_THREADS=" + std::to_string(worker_threads)};
    opt.workers.push_back(std::move(spec));
  }
  auto router = std::make_unique<svc::Router>(std::move(opt));
  router->start();
  // The router answers ping before its workers are up and sheds with
  // "overload" until then: readiness is wait_healthy, not a ping.
  if (!router->wait_healthy(60.0))
    throw std::runtime_error("tier workers never became healthy");
  return router;
}

void stop_tier(std::unique_ptr<svc::Router>& router) {
  if (!router) return;
  router->shutdown();
  router->wait();
  router.reset();
}

/// Replies that were not ok or whose result bytes differ from the
/// reference bytes (compared by their 64-bit digests).
std::uint64_t count_failures(
    const Phase& phase,
    const std::unordered_map<std::uint64_t, std::uint64_t>& ref_digest) {
  std::uint64_t failed = 0;
  for (const Reply& r : phase.replies)
    if (!r.ok || r.digest != ref_digest.at(r.id)) ++failed;
  return failed;
}

/// Mean time per call of `fn` over `inputs`, in microseconds.
template <typename Fn>
double mean_us(const std::vector<std::string>& inputs, Fn fn) {
  constexpr int kPasses = 20;
  std::size_t calls = 0;
  const auto start = Clock::now();
  for (int pass = 0; pass < kPasses; ++pass)
    for (const std::string& input : inputs) {
      fn(input);
      ++calls;
    }
  return seconds_since(start) * 1e6 / static_cast<double>(calls);
}

}  // namespace

Result run_serve_mixed(const Options& options) {
  Result result;
  obs::enable(options.trace);
  const unsigned worker_threads = std::max<unsigned>(
      1, (options.nproc > kClients ? options.nproc - kClients : 1) /
             static_cast<unsigned>(kWorkers));
  // Unix socket paths are limited to ~100 bytes: keep them relative.
  const std::string base =
      options.work_dir + "/t" + std::to_string(::getpid());
  const std::string socket = base + ".sock";
  const std::string models = base + ".models";
  const Mix mix(options.seed);

  std::unique_ptr<svc::Router> tier;
  Phase warm, main_phase;
  TierStats before, after;
  double peak_rss = 0.0;
  try {
    // Set-up: calibrate once, persist the models, start the tier.
    double setup_s = 0.0;
    {
      obs::Span span("ftbench.setup");
      const auto start = Clock::now();
      {
        svc::RegistryOptions reg;
        obs::Span calibrate("svc.Registry.open");
        const svc::Registry registry = svc::Registry::open(reg);
        registry.save_models(models);
      }
      tier = start_tier(socket, models, worker_threads);
      setup_s = seconds_since(start);
    }
    if (options.setup_only) {
      stop_tier(tier);
      std::filesystem::remove_all(models);
      result.set("setup_s", setup_s, "s");
      return result;
    }

    std::vector<svc::Client> clients;
    for (std::size_t c = 0; c < kClients; ++c)
      clients.push_back(svc::Client::connect_unix(socket, 120.0));

    // Warm-up: whole rounds until the per-window median settles.
    std::uint64_t next = 0;
    warm.wall = warm_up([&] {
      Phase window = drive(mix, clients, &next, 0.5);
      warm.replies.insert(warm.replies.end(), window.replies.begin(),
                          window.replies.end());
      return latencies(window);
    });

    if (!options.trace) {
      before = tier_stats(*tier, socket);
      timed_segments(result, options, setup_s, 0.99,
                     [&](double seconds, std::size_t min_ops) {
                       const Phase segment =
                           drive(mix, clients, &next, seconds, min_ops);
                       main_phase.replies.insert(main_phase.replies.end(),
                                                 segment.replies.begin(),
                                                 segment.replies.end());
                       main_phase.wall += segment.wall;
                       return Segment{latencies(segment), segment.wall};
                     });
      after = tier_stats(*tier, socket);
    } else {
      // Tier counters are read over the traced half; its replies are
      // checked too.
      Phase traced;
      traced_halves(result, options.seconds, [&](bool on, double seconds) {
        if (on) before = tier_stats(*tier, socket);
        Phase& phase = on ? traced : main_phase;
        obs::Span span("ftbench.timed");
        phase = drive(mix, clients, &next, seconds);
        if (on) after = tier_stats(*tier, socket);
        return PhaseRate{phase.replies.size(), phase.wall};
      });

      std::vector<double> hit_ms, miss_ms;
      for (const Reply& r : traced.replies)
        (r.cached ? hit_ms : miss_ms).push_back(r.ms);
      result.set("svc.client.hit_ms", median(hit_ms), "ms", hit_ms.size());
      result.set("svc.client.miss_ms", median(miss_ms), "ms", miss_ms.size());
      const obs::MetricsSnapshot snap = obs::scrape();
      if (const auto* h = snap.histogram("svc.router.proxy_seconds");
          h && h->count > 0)
        result.set("svc.router.proxy_ms", h->sum / h->count * 1e3, "ms",
                   h->count);
      main_phase.replies.insert(main_phase.replies.end(),
                                traced.replies.begin(), traced.replies.end());
    }

    peak_rss = self_peak_rss_mb();
    svc::JsonArray parts{svc::Json(peak_rss)};
    for (std::size_t w = 0; w < kWorkers; ++w) {
      parts.push_back(svc::Json(worker_peak_rss_mb(tier->worker_pid(w))));
      peak_rss += parts.back().as_number();
    }
    result.info["peak_rss_mb_router_workers"] = svc::Json(std::move(parts));
    stop_tier(tier);
  } catch (...) {
    stop_tier(tier);
    std::filesystem::remove_all(models);
    throw;
  }
  result.set("peak_rss_mb", peak_rss, "MiB");

  const auto delta = [&](const std::string& field) {
    return after.workers.at(field) - before.workers.at(field);
  };
  const double hits = delta("cache.hits");
  const double misses = delta("cache.misses");
  if (options.trace) {
    result.set("svc.cache.hit_ratio",
               hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
    result.set("svc.cache.evictions", delta("cache.evictions"), "count");
    result.set("svc.coalesced",
               delta("coalesced") +
                   static_cast<double>(after.router.coalesced -
                                       before.router.coalesced),
               "count");
    result.set("svc.router.sheds",
               static_cast<double>(after.router.rejected_overload -
                                   before.router.rejected_overload +
                                   after.router.shed_degraded -
                                   before.router.shed_degraded),
               "count");
    result.set("svc.router.retries",
               static_cast<double>(after.router.retries -
                                   before.router.retries),
               "count");
    result.set("svc.search.warm_hits", delta("search_warm_hits"), "count");
    result.set("svc.search.evaluations", delta("search_evaluations"),
               "count");
  }
  result.info["worker_cache_hits"] = svc::Json(hits);
  result.info["worker_cache_misses"] = svc::Json(misses);
  result.info["router_respawns_total"] = svc::Json(after.router.respawns);

  // References: every distinct request sent, priced in this process over
  // the same saved models, outside the timed phase and outside setup_s.
  std::vector<std::uint64_t> ids;
  for (const Phase* phase : {&warm, &main_phase})
    for (const Reply& r : phase->replies) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<std::string> ref(ids.size());
  std::vector<double> engine_ms(ids.size());
  {
    svc::RegistryOptions reg;
    reg.models_dir = models;
    const svc::Registry registry = svc::Registry::open(reg);
    const auto price = [&](std::size_t i) {
      const auto start = Clock::now();
      obs::Span span("svc.handle_request");
      ref[i] = svc::handle_request(registry,
                                   svc::Json::parse(mix.request(ids[i])))
                   .dump();
      engine_ms[i] = seconds_since(start) * 1e3;
    };
    // Timed one at a time in the traced run; fanned out otherwise.
    if (options.trace) {
      for (std::size_t i = 0; i < ids.size(); ++i) price(i);
    } else {
      util::parallel_for(ids.size(), price);
    }
  }
  std::filesystem::remove_all(models);

  std::unordered_map<std::uint64_t, std::uint64_t> ref_digest;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (options.corrupt_reference) ref[i] += ' ';
    ref_digest[ids[i]] = Digest().bytes(ref[i]).value();
  }
  record_checks(result, main_phase.replies.size(),
                count_failures(main_phase, ref_digest),
                count_failures(warm, ref_digest));

  if (options.trace) {
    std::map<std::string, std::vector<double>> by_op;
    for (std::size_t i = 0; i < ids.size(); ++i)
      by_op[kOpNames[Mix::type_of(ids[i])]].push_back(engine_ms[i]);
    for (const auto& [op, ms] : by_op)
      result.set("svc.engine_ms." + op, median(ms), "ms", ms.size());

    // The JSON layer on the mix's own request and result bytes.
    std::vector<std::string> requests;
    for (const std::uint64_t id : ids) requests.push_back(mix.request(id));
    std::vector<svc::Json> parsed;
    for (const std::string& bytes : ref) parsed.push_back(svc::Json::parse(bytes));
    std::vector<std::string> all_bytes = requests;
    all_bytes.insert(all_bytes.end(), ref.begin(), ref.end());
    std::size_t sink = 0;
    result.set("svc.json.parse_us",
               mean_us(all_bytes, [&](const std::string& b) {
                 sink += svc::Json::parse(b).is_object();
               }),
               "us");
    std::size_t k = 0;
    result.set("svc.json.dump_us",
               mean_us(ref, [&](const std::string&) {
                 sink += parsed[k++ % parsed.size()].dump().size();
               }),
               "us");
    std::vector<svc::Json> request_json;
    for (const std::string& b : requests) request_json.push_back(svc::Json::parse(b));
    k = 0;
    result.set("svc.canonical_key_us",
               mean_us(requests, [&](const std::string&) {
                 sink += svc::canonical_key(request_json[k++ % request_json.size()])
                             .size();
               }),
               "us");
    result.info["json_sink"] = svc::Json(static_cast<std::uint64_t>(sink));
  }

  std::uint64_t cached = 0;
  for (const Reply& r : main_phase.replies) cached += r.cached ? 1 : 0;
  result.info["warmup_s"] = svc::Json(warm.wall);
  result.info["warmup_ops"] = svc::Json(warm.replies.size());
  result.info["timed_s"] = svc::Json(main_phase.wall);
  result.info["distinct_requests"] = svc::Json(ids.size());
  result.info["cached_replies"] = svc::Json(cached);
  result.info["clients"] = svc::Json(static_cast<std::uint64_t>(kClients));
  result.info["workers"] = svc::Json(static_cast<std::uint64_t>(kWorkers));
  result.info["worker_threads"] =
      svc::Json(static_cast<std::uint64_t>(worker_threads));
  return result;
}

}  // namespace perfbench
