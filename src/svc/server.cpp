#include "svc/server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>


namespace ftbesst::svc {

Server::Server(std::shared_ptr<const Registry> registry, ServerOptions options)
    : Frontend(
          {.unix_socket_path = options.unix_socket_path,
           .tcp_port = options.tcp_port,
           .readers = 1,
           .queue_capacity = options.queue_capacity,
           .default_deadline_ms = options.default_deadline_ms,
           .read_deadline_ms = options.read_deadline_ms,
           .max_frame_bytes = options.max_frame_bytes,
           .role = "server",
           .obs_prefix = "svc.",
           .latency_histogram = "svc.request_seconds"},
          *this),
      registry_(std::move(registry)),
      name_(std::move(options.name)),
      cache_(options.cache) {
  if (!registry_) throw std::invalid_argument("Server requires a registry");
}

Server::~Server() { stop(); }

void Server::submit(std::function<void()> job) { tasks_.run(std::move(job)); }

void Server::quiesce() {
  tasks_.wait();  // joins the last tasks past their final decrement
}

std::optional<std::string> Server::cached(const std::string& key) {
  if (auto hit = cache_.get(key)) return ok_payload(true, *hit);
  return std::nullopt;
}

std::string Server::compute(const std::string& key, const Json& request,
                            const std::string&) {
  // The search op reads prior single-cell dse entries out of the result
  // cache (warm start) and writes its own full-fidelity evaluations back
  // through the same hooks.
  const bool search = request.string_or("op", "") == "search";
  CacheHooks hooks;
  if (search) {
    hooks.get = [this](const std::string& k) { return cache_.get(k); };
    hooks.put = [this](const std::string& k,
                       std::shared_ptr<const std::string> v) {
      cache_.put(k, std::move(v));
    };
  }
  const Json result_json = handle_request(*registry_, request, hooks);
  if (search) {
    bump(Counter::searches);
    bump(Counter::search_warm_hits, static_cast<std::uint64_t>(
                                        result_json.number_or("warm_hits", 0.0)));
    bump(Counter::search_evaluations,
         static_cast<std::uint64_t>(result_json.number_or("evaluations", 0.0)));
  }
  auto result = std::make_shared<const std::string>(result_json.dump());
  cache_.put(key, result);
  return ok_payload(false, *result);
}

std::optional<std::string> Server::handle(const std::string& op,
                                          const Json& request,
                                          const std::string&) {
  if (op == "warm") return warm(request);
  if (op != "sleep") return std::nullopt;
  // Debug/test op: holds a queue slot for a controlled duration so overload
  // and deadline behaviour are deterministically testable. Never cached.
  const double ms =
      std::min(10000.0, std::max(0.0, request.number_or("ms", 0.0)));
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(ms * 1000.0)));
  JsonObject result;
  result.emplace("slept_ms", Json(ms));
  return ok_payload(false, Json(std::move(result)).dump());
}

std::string Server::warm(const Json& request) {
  // Tier-internal bulk load: the router replays its journal of recently
  // cached {canonical key -> result bytes} pairs into a respawned worker's
  // cache so the first post-restart requests hit warm. Entries embed the
  // result payload as a JSON string; the escape round-trip is lossless, so
  // warmed hits stay byte-identical to the original cold computation.
  const Json* entries = request.find("entries");
  if (!entries || !entries->is_array())
    throw std::invalid_argument("warm needs an \"entries\" array");
  std::uint64_t loaded = 0;
  for (const Json& entry : entries->as_array()) {
    if (!entry.is_object())
      throw std::invalid_argument("warm entries must be objects");
    const std::string key = entry.string_or("key", "");
    const Json* result = entry.find("result");
    if (key.empty() || !result || !result->is_string())
      throw std::invalid_argument(
          "warm entries need \"key\" and string \"result\"");
    cache_.put(key, std::make_shared<const std::string>(result->as_string()));
    ++loaded;
  }
  bump(Counter::warmed, loaded);
  JsonObject result;
  result.emplace("warmed", Json(loaded));
  return ok_payload(false, Json(std::move(result)).dump());
}

void Server::describe(JsonObject& stats) {
  const CacheStats c = cache_.stats();
  JsonObject cache;
  cache.emplace("hits", Json(c.hits));
  cache.emplace("misses", Json(c.misses));
  cache.emplace("evictions", Json(c.evictions));
  cache.emplace("entries", Json(c.entries));
  cache.emplace("bytes", Json(c.bytes));
  stats.emplace("name", Json(name_));
  // Wire-compatible constants: ExprProgram has one batch evaluator, the
  // scalar strip interpreter, on every host.
  stats.emplace("eval_backend", Json(std::string("scalar")));
  stats.emplace("avx2_supported", Json(false));
  stats.emplace("cache", Json(std::move(cache)));
}

}  // namespace ftbesst::svc
