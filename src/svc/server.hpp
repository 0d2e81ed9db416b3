#pragma once
// The long-running FT-BESST prediction daemon: the serving front-end
// (svc/frontend.hpp) over the local backend.
//
//   admitted request -> TaskPool -> deadline check -> cache lookup
//     -> [single-flight compute via handle_request] -> reply
//
// One reader thread owns every socket read. Admitted requests become tasks
// on the server's own job pool; the engines fan their trials onto the
// shared util::TaskPool. The two must stay apart: a computing request
// helps the shared pool while it waits on its trials, and if request jobs
// sat on that pool it could pick up a duplicate of its own request, which
// then waits on the SingleFlight result that only the thread's own
// unfinished computation can deliver — a deadlock. The result cache
// stores the serialized result payload itself, so the result bytes of a
// cache hit are byte-identical to the cold computation's.
//
// In the scaled tier (svc/router.hpp) each worker process is a Server on
// its own unix socket (`ftbesst worker`): the router consistent-hashes
// canonical request keys across N of them, and the tier-internal `warm` op
// bulk-loads journaled {key -> result} pairs into a respawned worker's
// cache.

#include <memory>
#include <string>

#include "svc/cache.hpp"
#include "svc/frontend.hpp"
#include "svc/registry.hpp"
#include "util/task_pool.hpp"

namespace ftbesst::svc {

struct ServerOptions {
  /// Unix-domain socket path (empty = no unix listener). A stale socket
  /// file (nothing answering) is replaced on bind; a path a live server
  /// still answers on makes start() throw EADDRINUSE instead of stealing
  /// it. Unlinked on shutdown.
  std::string unix_socket_path;
  /// Localhost TCP port: -1 = no TCP listener, 0 = pick an ephemeral port
  /// (read it back with tcp_port()). Binds 127.0.0.1 only.
  int tcp_port = -1;
  /// Admission bound: maximum requests queued or executing. Beyond this,
  /// new requests get {"code":"overload"} immediately.
  std::size_t queue_capacity = 64;
  /// Default per-request deadline in ms applied when the request carries no
  /// "deadline_ms" field; 0 = none. A request whose deadline has already
  /// passed when a worker picks it up is answered {"code":"deadline"}
  /// without computing.
  double default_deadline_ms = 0.0;
  /// Per-connection read deadline in ms: a connection that holds a partial
  /// frame this long is answered {"code":"read_timeout"} and closed, so a
  /// slowloris client cannot pin reader state forever. 0 = off.
  double read_deadline_ms = 0.0;
  /// Instance name surfaced in the stats op ("worker-3"); empty for the
  /// standalone daemon.
  std::string name;
  CacheConfig cache;
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
};

class Server final : private Backend, public Frontend {
 public:
  Server(std::shared_ptr<const Registry> registry, ServerOptions options);
  ~Server();

  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }

 private:
  void submit(std::function<void()> job) override;
  void quiesce() override;
  std::optional<std::string> cached(const std::string& key) override;
  std::string compute(const std::string& key, const Json& request,
                      const std::string& frame) override;
  std::optional<std::string> handle(const std::string& op,
                                    const Json& request,
                                    const std::string& frame) override;
  [[nodiscard]] std::string_view ops() const override { return "sleep, warm"; }
  void describe(JsonObject& stats) override;
  [[nodiscard]] CacheStats cache_stats() const override {
    return cache_.stats();
  }
  [[nodiscard]] std::string warm(const Json& request);

  std::shared_ptr<const Registry> registry_;
  std::string name_;
  ResultCache cache_;
  util::TaskPool jobs_;  // request jobs only; sized like the shared pool
  util::TaskGroup tasks_{jobs_};
};

}  // namespace ftbesst::svc
