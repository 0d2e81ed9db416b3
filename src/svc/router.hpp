#pragma once
// Front router for the horizontally scaled serving tier: the serving
// front-end (svc/frontend.hpp) over the ring backend.
//
//            clients
//               |
//   +-----------v-----------+     unix sockets      +----------------+
//   |  Router               |---- <sock>.w0 ------->| Server (shard 0)|
//   |   R reader threads    |---- <sock>.w1 ------->| Server (shard 1)|
//   |   (shared listeners)  |---- ...        ------>|      ...        |
//   |   proxy threads       |---- <sock>.wN-1 ----->| Server (shard N)|
//   |   supervisor + journal|                       +-----------------+
//   +-----------------------+
//
// The front-end's readers admit frames against one shared capacity bound
// and hand them to dedicated proxy threads (each blocks on one worker round
// trip). Cacheable ops are consistent-hashed by their canonical request key
// (svc/chash.hpp) to one worker — a Server process on its own unix socket,
// spawned as `ftbesst worker` — and forwarded verbatim over the wire codec;
// the reply bytes come back untouched, so tier responses are byte-identical
// to a single process's. The front-end's SingleFlight coalesces concurrent
// identical requests into one proxied round trip. `sleep` has no shard
// affinity and goes round-robin to a healthy worker.
//
// Supervision: a health thread pings every worker; a dead worker (crash,
// kill -9) has its hash range marked *degraded* — requests for those keys
// are shed with a clean {"code":"overload"} (clients retry; the rest of
// the ring is untouched) — and is respawned, its Registry warm-starting
// from saved model files. Before the new worker rejoins, the router
// replays its journal of recently cached responses (svc/journal.hpp) into
// the worker's cache through the tier-internal `warm` op: warm-cache
// handoff, measured as post-respawn hit rate. Clients cannot send `warm`
// through the router.
//
// The `rolling_restart` wire op (or `ftbesst serve --rolling-restart`)
// restarts workers one at a time: degrade the shard (new keys shed),
// SIGTERM the worker (it drains in-flight requests and answers them),
// respawn, re-warm from the journal, mark healthy, move on. In-flight
// requests racing a drain get the worker's "shutting_down" answer, which
// the router rewrites to "overload" — clients only ever see clean
// ok/overload outcomes, never a failure.

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/chash.hpp"
#include "svc/frontend.hpp"
#include "svc/journal.hpp"

namespace ftbesst::svc {

struct WorkerSpec {
  /// Unix socket the worker serves on (the shard address).
  std::string socket_path;
  /// Command line to (re)spawn the worker process; empty = externally
  /// managed (the router health-checks and re-warms it but never spawns —
  /// in-process Servers in tests use this).
  std::vector<std::string> spawn_argv;
  /// Extra "KEY=VALUE" environment entries for spawned workers.
  std::vector<std::string> spawn_env;
};

struct RouterOptions {
  std::string unix_socket_path;
  /// Localhost TCP port: -1 = none, 0 = ephemeral (read via tcp_port()).
  int tcp_port = -1;
  /// Reader threads sharing the listening fds (per-core accept).
  std::size_t readers = 2;
  /// Dedicated proxy threads; each blocks on one worker round trip at a
  /// time, so this bounds tier-wide proxy concurrency.
  std::size_t proxy_threads = 16;
  /// Admission bound across queued + executing proxy jobs.
  std::size_t queue_capacity = 256;
  double default_deadline_ms = 0.0;
  /// Slowloris guard on client connections (0 = off).
  double read_deadline_ms = 30000.0;
  /// Socket timeout on proxied worker round trips.
  double worker_timeout_s = 600.0;
  /// Supervisor health-check cadence.
  double health_interval_ms = 200.0;
  /// A respawned worker must answer a ping within this budget.
  double ready_timeout_s = 120.0;
  /// Rolling restart: drain grace before SIGKILL.
  double worker_grace_s = 15.0;
  std::size_t vnodes = 128;
  std::size_t journal_max_entries = 1024;
  std::size_t journal_max_bytes = 8u << 20;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  std::vector<WorkerSpec> workers;
};

class Router final : private Backend, public Frontend {
 public:
  explicit Router(RouterOptions options);
  ~Router();

  /// Block until every worker is healthy or the timeout expires; returns
  /// whether the ring is fully healthy. Spawnable workers are brought up
  /// asynchronously by the supervisor after start().
  bool wait_healthy(double timeout_s);

  /// Restart spawned workers one at a time with warm-cache handoff.
  /// Returns the number of workers restarted. Serialized; callable from
  /// the `rolling_restart` wire op or the embedder.
  std::uint64_t rolling_restart();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return slots_.size();
  }
  [[nodiscard]] bool worker_healthy(std::size_t index) const;
  /// Pid of the spawned worker process (-1 if externally managed / down).
  [[nodiscard]] pid_t worker_pid(std::size_t index) const;
  /// Ring lookup for a canonical key (exposed for the purity/remap tests).
  [[nodiscard]] std::size_t worker_for_key(std::string_view canonical) const {
    return ring_.lookup(canonical);
  }
  [[nodiscard]] const WarmJournal& journal() const noexcept {
    return journal_;
  }

 private:
  struct Slot;

  void launch() override;
  void submit(std::function<void()> job) override;
  void quiesce() override;
  std::optional<std::string> cached(const std::string&) override {
    return std::nullopt;  // the owning worker's cache answers hits
  }
  std::string compute(const std::string& key, const Json& request,
                      const std::string& frame) override;
  std::optional<std::string> handle(const std::string& op,
                                    const Json& request,
                                    const std::string& frame) override;
  [[nodiscard]] std::string_view ops() const override {
    return "sleep, rolling_restart";
  }
  void describe(JsonObject& stats) override;

  void proxy_main();
  void supervise();
  [[nodiscard]] std::string forward_any(const std::string& frame);
  [[nodiscard]] std::string proxy_round_trip(std::size_t index,
                                             const std::string& frame,
                                             const std::string& key);
  void mark_degraded(std::size_t index);
  void revive(std::size_t index);
  bool bring_up(Slot& slot, std::size_t index);  ///< under lifecycle lock
  bool wait_ready(Slot& slot);
  bool ping_worker(const Slot& slot);
  std::size_t warm_worker(Slot& slot, std::size_t index);
  void stop_workers();

  RouterOptions options_;
  HashRing ring_;
  WarmJournal journal_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<std::function<void()>> queue_;
  bool proxy_stop_ = false;

  /// Teardown reached: no more revives. Set under supervisor_mutex_.
  std::atomic<bool> stopping_{false};
  std::mutex supervisor_mutex_;
  std::condition_variable supervisor_cv_;

  std::mutex rolling_mutex_;
  std::atomic<std::uint64_t> round_robin_{0};

  std::vector<std::thread> proxy_threads_;
  std::thread supervisor_thread_;
};

}  // namespace ftbesst::svc
