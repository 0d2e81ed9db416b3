#include "svc/router.hpp"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "svc/client.hpp"

extern char** environ;

namespace ftbesst::svc {

namespace {

constexpr std::size_t kMaxPooledLinks = 16;

bool wait_exit(pid_t pid, double grace_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(grace_s);
  while (true) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

/// posix_spawnp `argv` (PATH-resolved) with the current environment plus
/// `extra_env` ("KEY=VALUE" entries override inherited keys). Returns the
/// child pid; throws std::system_error on spawn failure. Never
/// fork-without-exec: the router is multithreaded (and may run under
/// TSan), so children must exec immediately.
pid_t spawn_process(const std::vector<std::string>& argv,
                    const std::vector<std::string>& extra_env) {
  if (argv.empty()) throw std::invalid_argument("spawn_process: empty argv");

  std::vector<char*> argv_ptrs;
  argv_ptrs.reserve(argv.size() + 1);
  for (const std::string& arg : argv)
    argv_ptrs.push_back(const_cast<char*>(arg.c_str()));
  argv_ptrs.push_back(nullptr);

  // Inherited environment with extra_env overrides (an inherited key also
  // named in extra_env is dropped, so getenv in the child sees the
  // override regardless of lookup order).
  const auto key_of = [](const char* entry) {
    const char* eq = std::strchr(entry, '=');
    return std::string_view(entry,
                            eq ? static_cast<std::size_t>(eq - entry)
                               : std::strlen(entry));
  };
  std::vector<char*> env_ptrs;
  for (char** e = environ; e && *e; ++e) {
    bool overridden = false;
    for (const std::string& extra : extra_env)
      if (key_of(extra.c_str()) == key_of(*e)) {
        overridden = true;
        break;
      }
    if (!overridden) env_ptrs.push_back(*e);
  }
  for (const std::string& extra : extra_env)
    env_ptrs.push_back(const_cast<char*>(extra.c_str()));
  env_ptrs.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawnp(&pid, argv_ptrs[0], nullptr, nullptr,
                                argv_ptrs.data(), env_ptrs.data());
  if (rc != 0)
    throw std::system_error(rc, std::generic_category(),
                            "posix_spawnp(" + argv.front() + ")");
  return pid;
}

}  // namespace

struct Router::Slot {
  explicit Slot(WorkerSpec spec_in) : spec(std::move(spec_in)) {}

  const WorkerSpec spec;
  std::atomic<bool> healthy{false};
  std::atomic<bool> restarting{false};
  std::atomic<pid_t> pid{-1};

  /// Serializes spawn/ready/warm transitions (supervisor vs. rolling
  /// restart); never held while serving.
  std::mutex lifecycle_mutex;

  std::mutex pool_mutex;
  std::vector<Client> idle;  ///< pooled proxy connections

  void drop_pool() {
    std::lock_guard<std::mutex> lock(pool_mutex);
    idle.clear();
  }
};

Router::Router(RouterOptions options)
    : Frontend({.unix_socket_path = options.unix_socket_path,
                .tcp_port = options.tcp_port,
                .readers = options.readers,
                .queue_capacity = options.queue_capacity,
                .default_deadline_ms = options.default_deadline_ms,
                .read_deadline_ms = options.read_deadline_ms,
                .max_frame_bytes = options.max_frame_bytes,
                .role = "tier",
                .obs_prefix = "svc.router.",
                .latency_histogram = "svc.router.proxy_seconds"},
               *this),
      options_(std::move(options)),
      ring_(std::max<std::size_t>(options_.workers.size(), 1),
            options_.vnodes),
      journal_(options_.journal_max_entries, options_.journal_max_bytes) {
  if (options_.workers.empty())
    throw std::invalid_argument("Router needs at least one worker");
  if (options_.readers == 0) options_.readers = 1;
  if (options_.proxy_threads == 0) options_.proxy_threads = 1;
  for (const WorkerSpec& spec : options_.workers) {
    if (spec.socket_path.empty())
      throw std::invalid_argument("WorkerSpec needs a socket path");
    if (spec.socket_path == options_.unix_socket_path)
      throw std::invalid_argument(
          "worker socket collides with the router socket: " +
          spec.socket_path);
  }
  slots_.reserve(options_.workers.size());
  for (const WorkerSpec& spec : options_.workers)
    slots_.push_back(std::make_unique<Slot>(spec));
}

Router::~Router() { stop(); }

bool Router::wait_healthy(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (true) {
    bool all = true;
    for (const auto& slot : slots_)
      if (!slot->healthy.load(std::memory_order_acquire)) {
        all = false;
        break;
      }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool Router::worker_healthy(std::size_t index) const {
  return slots_.at(index)->healthy.load(std::memory_order_acquire);
}

pid_t Router::worker_pid(std::size_t index) const {
  return slots_.at(index)->pid.load(std::memory_order_acquire);
}

// ---------------------------------------------------------------------------
// Jobs and proxying

void Router::launch() {
  proxy_threads_.reserve(options_.proxy_threads);
  for (std::size_t i = 0; i < options_.proxy_threads; ++i)
    proxy_threads_.emplace_back([this] { proxy_main(); });
  supervisor_thread_ = std::thread([this] { supervise(); });
}

void Router::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

void Router::proxy_main() {
  while (true) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return proxy_stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // proxy_stop_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

std::string Router::compute(const std::string& key, const Json&,
                            const std::string& frame) {
  return proxy_round_trip(ring_.lookup(key), frame, key);
}

std::optional<std::string> Router::handle(const std::string& op,
                                          const Json&,
                                          const std::string& frame) {
  if (op == "sleep") return forward_any(frame);
  if (op == "warm")
    throw std::invalid_argument(
        "warm is tier-internal (router -> worker only)");
  if (op != "rolling_restart") return std::nullopt;
  const std::uint64_t before = stats().journal_replayed;
  const std::uint64_t restarted = rolling_restart();
  JsonObject result;
  result.emplace("restarted", Json(restarted));
  result.emplace("replayed", Json(stats().journal_replayed - before));
  return ok_payload(false, Json(std::move(result)).dump());
}

std::string Router::forward_any(const std::string& frame) {
  // Uncacheable ops have no shard affinity: round-robin over healthy
  // workers.
  const std::size_t n = slots_.size();
  const std::size_t start = static_cast<std::size_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t index = (start + i) % n;
    if (!slots_[index]->healthy.load(std::memory_order_acquire)) continue;
    return proxy_round_trip(index, frame, {});
  }
  bump(Counter::shed_degraded);
  return error_payload("overload", "no healthy worker; retry later");
}

std::string Router::proxy_round_trip(std::size_t index,
                                     const std::string& frame,
                                     const std::string& key) {
  Slot& slot = *slots_[index];
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!slot.healthy.load(std::memory_order_acquire)) break;
    try {
      Client link = [&]() -> Client {
        if (attempt == 0) {
          std::lock_guard<std::mutex> lock(slot.pool_mutex);
          if (!slot.idle.empty()) {
            Client pooled = std::move(slot.idle.back());
            slot.idle.pop_back();
            return pooled;
          }
        }
        // Retry always dials fresh: the pooled fd may predate a worker
        // restart.
        return Client::connect_unix(slot.spec.socket_path,
                                    options_.worker_timeout_s);
      }();
      std::string reply = link.exchange(frame, options_.max_frame_bytes);
      {
        std::lock_guard<std::mutex> lock(slot.pool_mutex);
        if (slot.healthy.load(std::memory_order_acquire) &&
            slot.idle.size() < kMaxPooledLinks)
          slot.idle.push_back(std::move(link));
      }
      bump(Counter::routed);
      if (error_code(reply) == "shutting_down") {
        // The worker is draining under us (rolling restart): shed cleanly;
        // the client retries and lands on the respawned shard.
        bump(Counter::shed_degraded);
        return error_payload("overload", "worker shard restarting; retry");
      }
      // Cacheable replies (keyed) feed the warm journal.
      if (!key.empty())
        if (const auto bytes = extract_result_bytes(reply))
          journal_.record(key, *bytes);
      return reply;
    } catch (const std::exception&) {
      if (attempt == 0) {
        bump(Counter::retries);
        continue;
      }
      mark_degraded(index);
    }
  }
  bump(Counter::shed_degraded);
  return error_payload("overload", "worker shard degraded; retry later");
}

// ---------------------------------------------------------------------------
// Supervision

void Router::mark_degraded(std::size_t index) {
  Slot& slot = *slots_[index];
  if (slot.healthy.exchange(false, std::memory_order_acq_rel))
    slot.drop_pool();
  supervisor_cv_.notify_all();
}

void Router::supervise() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(supervisor_mutex_);
      supervisor_cv_.wait_for(
          lock,
          std::chrono::duration<double, std::milli>(
              options_.health_interval_ms),
          [this] { return stopping_.load(std::memory_order_acquire); });
      if (stopping_.load(std::memory_order_acquire)) return;
    }
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (stopping_.load(std::memory_order_acquire)) return;
      Slot& slot = *slots_[i];
      if (slot.restarting.load(std::memory_order_acquire)) continue;
      // Reap a spawned worker that died (crash, kill -9): its exit is the
      // strongest health signal and frees the zombie immediately.
      pid_t pid = slot.pid.load(std::memory_order_acquire);
      if (pid > 0) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          slot.pid.compare_exchange_strong(pid, -1,
                                           std::memory_order_acq_rel);
          mark_degraded(i);
        }
      }
      if (!slot.healthy.load(std::memory_order_acquire)) {
        revive(i);
      } else if (!ping_worker(slot)) {
        mark_degraded(i);
        revive(i);
      }
    }
  }
}

bool Router::ping_worker(const Slot& slot) {
  try {
    Client probe = Client::connect_unix(slot.spec.socket_path, 2.0);
    const std::string reply =
        probe.exchange("{\"op\":\"ping\"}", options_.max_frame_bytes);
    return extract_result_bytes(reply).has_value();
  } catch (const std::exception&) {
    return false;
  }
}

void Router::revive(std::size_t index) {
  Slot& slot = *slots_[index];
  std::unique_lock<std::mutex> lifecycle(slot.lifecycle_mutex,
                                         std::try_to_lock);
  if (!lifecycle.owns_lock()) return;  // another thread is already on it
  if (stopping_.load(std::memory_order_acquire)) return;
  if (!bring_up(slot, index)) return;
  slot.healthy.store(true, std::memory_order_release);
}

bool Router::bring_up(Slot& slot, std::size_t index) {
  if (!slot.spec.spawn_argv.empty()) {
    // Kill any previous incarnation first: two workers must never race for
    // one shard socket.
    const pid_t old = slot.pid.exchange(-1, std::memory_order_acq_rel);
    if (old > 0) {
      ::kill(old, SIGKILL);
      ::waitpid(old, nullptr, 0);
    }
    pid_t pid = -1;
    try {
      pid = spawn_process(slot.spec.spawn_argv, slot.spec.spawn_env);
    } catch (const std::exception&) {
      return false;  // spawn failed; the next supervisor tick retries
    }
    slot.pid.store(pid, std::memory_order_release);
    if (!wait_ready(slot)) return false;
    bump(Counter::respawns);
  } else if (!ping_worker(slot)) {
    return false;  // externally managed and still down
  }
  bump(Counter::journal_replayed, warm_worker(slot, index));
  return true;
}

bool Router::wait_ready(Slot& slot) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options_.ready_timeout_s);
  while (!stopping_.load(std::memory_order_acquire)) {
    const pid_t pid = slot.pid.load(std::memory_order_acquire);
    if (pid > 0) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        slot.pid.store(-1, std::memory_order_release);
        return false;  // died during startup (bad registry, busy socket)
      }
    }
    if (ping_worker(slot)) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

std::size_t Router::warm_worker(Slot& slot, std::size_t index) {
  const std::vector<WarmJournal::Entry> entries = journal_.snapshot();
  if (entries.empty()) return 0;
  std::size_t replayed = 0;
  JsonArray batch;
  std::size_t batch_bytes = 0;
  const std::size_t budget = options_.max_frame_bytes / 2;

  const auto flush = [&]() -> bool {
    if (batch.empty()) return true;
    const std::size_t count = batch.size();
    JsonObject request;
    request.emplace("op", Json(std::string("warm")));
    request.emplace("entries", Json(std::move(batch)));
    batch = JsonArray{};
    batch_bytes = 0;
    try {
      Client link = Client::connect_unix(slot.spec.socket_path,
                                         options_.worker_timeout_s);
      const std::string reply = link.exchange(
          Json(std::move(request)).dump(), options_.max_frame_bytes);
      if (!extract_result_bytes(reply).has_value()) return false;
      replayed += count;
      return true;
    } catch (const std::exception&) {
      return false;  // cold shard is degraded service, not an error
    }
  };

  for (const WarmJournal::Entry& entry : entries) {
    if (ring_.lookup(entry.key) != index) continue;
    const std::size_t approx = entry.key.size() + entry.result.size() + 32;
    if (!batch.empty() && batch_bytes + approx > budget && !flush())
      return replayed;
    JsonObject obj;
    obj.emplace("key", Json(entry.key));
    obj.emplace("result", Json(entry.result));
    batch.push_back(Json(std::move(obj)));
    batch_bytes += approx;
  }
  flush();
  return replayed;
}

std::uint64_t Router::rolling_restart() {
  std::lock_guard<std::mutex> rolling(rolling_mutex_);
  std::uint64_t restarted = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (stopping_.load(std::memory_order_acquire)) break;
    Slot& slot = *slots_[i];
    if (slot.spec.spawn_argv.empty())
      continue;  // externally managed: nothing to restart
    slot.restarting.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lifecycle(slot.lifecycle_mutex);
      // Degrade first: new keys for this shard shed cleanly while the old
      // worker drains its in-flight requests.
      if (slot.healthy.exchange(false, std::memory_order_acq_rel))
        slot.drop_pool();
      const pid_t old = slot.pid.exchange(-1, std::memory_order_acq_rel);
      if (old > 0) {
        ::kill(old, SIGTERM);  // graceful: drain, answer, exit
        if (!wait_exit(old, options_.worker_grace_s)) {
          ::kill(old, SIGKILL);
          ::waitpid(old, nullptr, 0);
        }
      }
      if (bring_up(slot, i)) {
        slot.healthy.store(true, std::memory_order_release);
        ++restarted;
      }
    }
    slot.restarting.store(false, std::memory_order_release);
  }
  bump(Counter::rolling_restarts);
  return restarted;
}

// ---------------------------------------------------------------------------
// Teardown and stats

void Router::quiesce() {
  // Every admitted request has been answered, so the proxy queue is empty.
  {
    std::lock_guard<std::mutex> lock(supervisor_mutex_);
    stopping_.store(true, std::memory_order_release);
  }
  supervisor_cv_.notify_all();
  supervisor_thread_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    proxy_stop_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& proxy : proxy_threads_) proxy.join();

  stop_workers();
  for (const auto& slot : slots_) slot->drop_pool();
}

void Router::stop_workers() {
  // SIGTERM everyone first (they drain concurrently), then collect.
  for (const auto& slot : slots_) {
    const pid_t pid = slot->pid.load(std::memory_order_acquire);
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  for (const auto& slot : slots_) {
    const pid_t pid = slot->pid.exchange(-1, std::memory_order_acq_rel);
    if (pid <= 0) continue;
    if (!wait_exit(pid, options_.worker_grace_s)) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (!slot->spec.socket_path.empty())
      ::unlink(slot->spec.socket_path.c_str());
  }
}

void Router::describe(JsonObject& obj) {
  obj.emplace("role", Json(std::string("router")));
  obj.emplace("workers", Json(static_cast<std::uint64_t>(slots_.size())));
  obj.emplace("readers",
              Json(static_cast<std::uint64_t>(options_.readers)));
  JsonObject journal;
  journal.emplace("entries",
                  Json(static_cast<std::uint64_t>(journal_.entries())));
  journal.emplace("bytes", Json(static_cast<std::uint64_t>(journal_.bytes())));
  journal.emplace("evictions", Json(journal_.evictions()));
  obj.emplace("journal", Json(std::move(journal)));

  JsonArray workers;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = *slots_[i];
    JsonObject w;
    w.emplace("index", Json(static_cast<std::uint64_t>(i)));
    w.emplace("socket", Json(slot.spec.socket_path));
    w.emplace("healthy",
              Json(slot.healthy.load(std::memory_order_acquire)));
    w.emplace("spawned", Json(!slot.spec.spawn_argv.empty()));
    w.emplace("pid", Json(static_cast<std::int64_t>(
                         slot.pid.load(std::memory_order_acquire))));
    // Live per-worker stats, best effort: a shard that cannot answer in
    // time reports null.
    Json worker_stats;
    if (slot.healthy.load(std::memory_order_acquire)) {
      try {
        Client probe = Client::connect_unix(slot.spec.socket_path, 2.0);
        const std::string reply =
            probe.exchange("{\"op\":\"stats\"}", options_.max_frame_bytes);
        if (const auto bytes = extract_result_bytes(reply))
          worker_stats = Json::parse(std::string(*bytes));
      } catch (const std::exception&) {
      }
    }
    w.emplace("stats", std::move(worker_stats));
    workers.push_back(Json(std::move(w)));
  }
  obj.emplace("worker_stats", Json(std::move(workers)));
}

}  // namespace ftbesst::svc
