#pragma once
// The one serving front-end, shared by the single-process daemon
// (svc::Server) and the tier router (svc::Router).
//
//   accept -> reader threads (poll) -> frame decode -> ADMISSION
//     -> Backend::submit -> deadline check -> op table -> reply
//
// R reader threads (one for a Server, RouterOptions::readers for a Router)
// poll the same non-blocking listeners (a Unix-domain socket and/or a
// localhost TCP port) plus the connections each of them won, buffer bytes
// per connection and peel off complete length-prefixed frames. A
// per-connection read deadline closes slowloris connections that park a
// half-written frame. Admission is where backpressure lives: at most
// `queue_capacity` requests may be queued or executing; a frame beyond that
// is answered at once with {"code":"overload"} (shed, never stall) and the
// connection stays healthy. Admitted requests become backend jobs.
//
// The op table: `ping`, `stats` and `shutdown` are answered here; the
// cacheable ops (predict, simulate, inject, dse, search) are keyed by
// canonical_key, and concurrent identical keys share one computation
// through a SingleFlight; every other op (`sleep`, plus `warm` or
// `rolling_restart`) goes to the backend. Two backends exist:
//
//   Server  local: ResultCache + Registry, jobs on a pool of their own,
//           apart from the shared util::TaskPool the engines' trials run
//           on (see server.hpp for why the two must not mix).
//   Router  ring: consistent-hash ring over worker processes (each one a
//           Server on a unix socket), jobs on proxy threads that block on
//           worker IO; supervision, respawn and journal re-warm.
//
// Replies are written by the job that computed them, serialized per
// connection by a write mutex. Readers only write rejections, with one
// non-blocking attempt, so a stalled client can never wedge the accept path.
//
// Lifecycle: shutdown() (the `shutdown` op, SIGTERM/SIGINT via
// install_signal_handlers, or the embedder) is async-signal-safe: an atomic
// store plus one self-pipe write. The readers then stop accepting (the last
// one closes the listeners), answer new frames with "shutting_down", and
// exit once every admitted request has been answered; wait() then stops the
// backend.
//
// Wire envelope (all replies):
//   {"cached":<bool>,"ok":true,"result":<result-json>}
//   {"code":"<machine code>","error":"<message>","ok":false}

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "svc/cache.hpp"
#include "svc/conn.hpp"
#include "svc/json.hpp"
#include "svc/wire.hpp"

// Every event a front-end or its backend counts. This one table generates
// the Stats fields, the stats-op keys and the obs counters, which are named
// <prefix><field> with prefix "svc." for a Server and "svc.router." for a
// Router (e.g. svc.requests, svc.router.shed_degraded). `requests` counts
// admitted requests; `coalesced` single-flight followers; `warmed` cache
// entries loaded by `warm`; `searches` cold search computations, with the
// cells they warm-started from cache (`search_warm_hits`) or priced cold
// (`search_evaluations`); `shed_degraded` keys shed to a degraded shard;
// `routed` proxied worker round trips; `retries` transparent proxy retries;
// `respawns` worker processes (re)spawned; `journal_replayed` journal
// entries replayed into workers.
#define FTBESST_SVC_COUNTERS(X) \
  X(accepted_connections)       \
  X(requests)                   \
  X(completed)                  \
  X(rejected_overload)          \
  X(rejected_deadline)          \
  X(rejected_shutdown)          \
  X(bad_requests)               \
  X(coalesced)                  \
  X(read_timeouts)              \
  X(warmed)                     \
  X(searches)                   \
  X(search_warm_hits)           \
  X(search_evaluations)         \
  X(shed_degraded)              \
  X(routed)                     \
  X(retries)                    \
  X(respawns)                   \
  X(rolling_restarts)           \
  X(journal_replayed)

namespace ftbesst::svc {

/// What a composition (Server, Router) hands its front-end; filled from its
/// own option struct.
struct FrontendOptions {
  std::string unix_socket_path;
  int tcp_port = -1;
  std::size_t readers = 1;
  std::size_t queue_capacity = 64;
  double default_deadline_ms = 0.0;
  double read_deadline_ms = 0.0;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  std::string_view role;               ///< "server" / "tier", in errors
  std::string_view obs_prefix;         ///< counter name prefix
  std::string_view latency_histogram;  ///< cacheable-op latency
};

/// Where a front-end's requests run and what it knows beyond the shared op
/// table. Implemented privately by Server (local) and Router (ring).
class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;
  /// Start backend threads: after the listeners bind, before the readers.
  virtual void launch() {}
  /// Run one admitted request's job.
  virtual void submit(std::function<void()> job) = 0;
  /// The readers have exited and every admitted request was answered.
  virtual void quiesce() = 0;
  /// Reply for a cacheable request that needs no computation.
  virtual std::optional<std::string> cached(const std::string& key) = 0;
  /// Reply for a cold cacheable request; runs once per concurrent key.
  virtual std::string compute(const std::string& key, const Json& request,
                              const std::string& frame) = 0;
  /// Ops beyond the shared table; std::nullopt = unknown op. May throw
  /// std::invalid_argument for a bad request.
  virtual std::optional<std::string> handle(const std::string& op,
                                            const Json& request,
                                            const std::string& frame) = 0;
  /// Those ops as the unknown-op error lists them ("sleep, warm").
  [[nodiscard]] virtual std::string_view ops() const = 0;
  /// Add the backend's own keys to the stats op's object.
  virtual void describe(JsonObject& stats) = 0;
  [[nodiscard]] virtual CacheStats cache_stats() const { return {}; }
};

class Frontend {
 public:
  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /// Bind listeners, start the backend and the readers. Throws
  /// std::system_error if a listener cannot be bound; the object then
  /// stays inert and start() may be retried.
  void start();
  /// Block until drained and stopped (readers joined, backend quiesced).
  void wait();
  /// start() + wait() — the CLI entry point.
  void run();
  /// Begin graceful drain; idempotent, async-signal-safe, callable from
  /// any thread and from the `shutdown` op.
  void shutdown();

  /// Actual TCP port after start() (useful with tcp_port = 0).
  [[nodiscard]] int tcp_port() const noexcept { return bound_tcp_port_; }

  /// Route SIGTERM/SIGINT to frontend->shutdown() via the self-pipe. Pass
  /// nullptr to restore the default disposition. One target at a time.
  static void install_signal_handlers(Frontend* frontend);

  struct Stats {
#define FTBESST_SVC_FIELD(name) std::uint64_t name = 0;
    FTBESST_SVC_COUNTERS(FTBESST_SVC_FIELD)
#undef FTBESST_SVC_FIELD
    CacheStats cache;  ///< the local backend's result cache
  };
  /// Relaxed counter snapshot; exact totals once drained.
  [[nodiscard]] Stats stats() const;

 protected:
  enum class Counter : std::size_t {
#define FTBESST_SVC_ENUM(name) name,
    FTBESST_SVC_COUNTERS(FTBESST_SVC_ENUM)
#undef FTBESST_SVC_ENUM
        kCount
  };

  Frontend(FrontendOptions options, Backend& backend);
  ~Frontend();
  /// Drop the signal target and drain (shutdown() + wait()) if started.
  /// Each composition calls this first in its destructor, while the backend
  /// state that wait() quiesces is still alive.
  void stop();
  /// Count one event: the instance total and the obs counter.
  void bump(Counter counter, std::uint64_t n = 1) noexcept;

 private:
  struct Reply;
  class InFlight;

  void reader_main(int wake_fd);
  void read_from(const std::shared_ptr<Conn>& conn);
  void admit(const std::shared_ptr<Conn>& conn, std::string&& frame);
  void reject(const std::shared_ptr<Conn>& conn, Counter counter,
              std::string_view code, std::string_view message);
  void execute(const std::shared_ptr<Conn>& conn, const std::string& frame,
               std::uint64_t arrival_ns);
  [[nodiscard]] Reply answer(const std::string& frame,
                             std::uint64_t arrival_ns);
  [[nodiscard]] Reply dispatch(const std::string& op, const Json& request,
                               const std::string& frame,
                               std::uint64_t arrival_ns);
  [[nodiscard]] std::string stats_json();
  void close_listeners();
  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  static constexpr std::size_t kCounters =
      static_cast<std::size_t>(Counter::kCount);

  FrontendOptions options_;
  Backend& backend_;
  SingleFlight single_flight_;
  std::array<std::atomic<std::uint64_t>, kCounters> counts_{};
  std::array<obs::Counter, kCounters> obs_counters_;
  obs::Histogram latency_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  bool unix_bound_ = false;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: shutdown()/signal -> poll

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> quiet_readers_{0};  ///< stopped accepting
  std::mutex wait_mutex_;  ///< serializes wait(): join, quiesce, close
  std::vector<std::thread> readers_;
};

}  // namespace ftbesst::svc
