#include "svc/frontend.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "obs/obs.hpp"
#include "svc/listen.hpp"
#include "svc/registry.hpp"

namespace ftbesst::svc {

namespace {

constexpr std::string_view kCounterNames[] = {
#define FTBESST_SVC_NAME(name) #name,
    FTBESST_SVC_COUNTERS(FTBESST_SVC_NAME)
#undef FTBESST_SVC_NAME
};

/// Poll timeout cap: drain completion and read deadlines are checked at
/// least this often even when no fd fires (and by readers without the
/// wake pipe).
constexpr int kPollMs = 50;

// Signal plumbing: the handler may only touch async-signal-safe state, so
// it calls Frontend::shutdown(), which is an atomic store plus one write()
// to the self-pipe.
std::atomic<Frontend*> g_signal_target{nullptr};

void handle_stop_signal(int) {
  if (Frontend* frontend = g_signal_target.load(std::memory_order_acquire))
    frontend->shutdown();
}

bool is_cacheable(std::string_view op) {
  return op == "predict" || op == "simulate" || op == "inject" ||
         op == "dse" || op == "search";
}

}  // namespace

/// How answer() resolved a request: the payload to send and the event to
/// count (none for an internal error).
struct Frontend::Reply {
  std::string payload;
  std::optional<Counter> counter = Counter::completed;
  bool shutdown = false;
};

/// One admitted request's admission slot. Whatever path answer() takes, the
/// destructor counts the reply's outcome, sends it and releases the slot,
/// exactly once; drain completion counts on that release. Counting before
/// sending means a client that has its reply also sees it in the stats.
class Frontend::InFlight {
 public:
  InFlight(Frontend& frontend, const std::shared_ptr<Conn>& conn)
      : frontend_(frontend), conn_(conn) {}
  ~InFlight() {
    if (reply.counter) frontend_.bump(*reply.counter);
    conn_->send_frame(reply.payload, frontend_.options_.max_frame_bytes);
    frontend_.in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

  Reply reply{error_payload("internal", "unknown error"), std::nullopt};

 private:
  Frontend& frontend_;
  const std::shared_ptr<Conn>& conn_;
};

Frontend::Frontend(FrontendOptions options, Backend& backend)
    : options_(std::move(options)),
      backend_(backend),
      latency_(obs::histogram(
          options_.latency_histogram,
          {1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 300.0})) {
  if (options_.unix_socket_path.empty() && options_.tcp_port < 0)
    throw std::invalid_argument(std::string(options_.role) +
                                " needs a unix socket path or tcp port");
  if (options_.readers == 0) options_.readers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  for (std::size_t i = 0; i < kCounters; ++i)
    obs_counters_[i] =
        obs::counter(std::string(options_.obs_prefix) +
                     std::string(kCounterNames[i]));
}

Frontend::~Frontend() {
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void Frontend::install_signal_handlers(Frontend* frontend) {
  g_signal_target.store(frontend, std::memory_order_release);
  struct sigaction action {};
  if (frontend) {
    action.sa_handler = handle_stop_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;  // no SA_RESTART: poll() must wake
  } else {
    action.sa_handler = SIG_DFL;
  }
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
}

void Frontend::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw std::logic_error("start() called twice");
  // Dead peers must surface as EPIPE from write(), not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  try {
    if (::pipe(wake_pipe_) != 0) throw_errno("pipe");
    for (int fd : wake_pipe_) {
      set_nonblocking(fd);
      set_cloexec(fd);
    }
    if (!options_.unix_socket_path.empty())
      unix_fd_ = bind_unix(options_.unix_socket_path, &unix_bound_);
    if (options_.tcp_port >= 0)
      tcp_fd_ = bind_tcp(options_.tcp_port, &bound_tcp_port_);
  } catch (...) {
    // A startup failure (busy port, bad path) must leave the object inert:
    // no thread ever ran, so wait() and the destructor return at once, and
    // every fd acquired so far is released.
    close_listeners();
    for (int& fd : wake_pipe_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    bound_tcp_port_ = -1;
    started_.store(false, std::memory_order_release);
    throw;
  }
  // Threads last: once any runs, teardown goes through shutdown().
  backend_.launch();
  readers_.reserve(options_.readers);
  for (std::size_t i = 0; i < options_.readers; ++i)
    readers_.emplace_back(
        [this, wake = i == 0 ? wake_pipe_[0] : -1] { reader_main(wake); });
}

void Frontend::wait() {
  std::lock_guard<std::mutex> lock(wait_mutex_);
  if (readers_.empty()) return;
  for (std::thread& reader : readers_) reader.join();
  readers_.clear();
  // Readers exit only once every admitted request has been answered.
  backend_.quiesce();
  close_listeners();
}

void Frontend::run() {
  start();
  wait();
}

void Frontend::shutdown() {
  // Async-signal-safe on purpose: an atomic store plus one pipe write. The
  // readers notice `draining_` and do the actual teardown.
  draining_.store(true, std::memory_order_release);
  const int fd = wake_pipe_[1];
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(fd, &byte, 1);
  }
}

void Frontend::stop() {
  if (g_signal_target.load(std::memory_order_acquire) == this)
    install_signal_handlers(nullptr);
  if (started_.load(std::memory_order_acquire)) {
    shutdown();
    wait();
  }
}

void Frontend::close_listeners() {
  for (int* fd : {&unix_fd_, &tcp_fd_})
    if (*fd >= 0) ::close(std::exchange(*fd, -1));
  if (std::exchange(unix_bound_, false))
    ::unlink(options_.unix_socket_path.c_str());
}

void Frontend::bump(Counter counter, std::uint64_t n) noexcept {
  const auto i = static_cast<std::size_t>(counter);
  counts_[i].fetch_add(n, std::memory_order_relaxed);
  obs_counters_[i].add(n);
}

// ---------------------------------------------------------------------------
// Readers

void Frontend::reader_main(int wake_fd) {
  // Copied once: after this reader stops accepting it never touches the
  // listener fds again, so the last reader to stop may close them.
  const int listeners[] = {unix_fd_, tcp_fd_};
  bool accepting = true;
  std::vector<std::shared_ptr<Conn>> conns;
  std::vector<pollfd> fds;
  while (true) {
    fds.clear();
    if (wake_fd >= 0) fds.push_back({wake_fd, POLLIN, 0});
    if (accepting)
      for (int fd : listeners)
        if (fd >= 0) fds.push_back({fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
    if (rc < 0 && errno != EINTR) break;  // unrecoverable poll failure
    if (rc > 0) {
      for (std::size_t i = 0; i < conn_base; ++i) {
        if (!(fds[i].revents & POLLIN)) continue;
        if (fds[i].fd == wake_fd) {
          char buf[64];
          while (::read(wake_fd, buf, sizeof buf) > 0) {
          }
          continue;
        }
        // Drain the accept queue. EAGAIN: empty, or a sibling reader won
        // the race. Transient errors (ECONNABORTED, EMFILE): keep serving.
        for (int fd; (fd = ::accept(fds[i].fd, nullptr, nullptr)) >= 0;) {
          set_cloexec(fd);
          // Connection fds stay *blocking*: one read() per POLLIN never
          // blocks, and responders want blocking writes for large replies.
          conns.push_back(std::make_shared<Conn>(fd));
          bump(Counter::accepted_connections);
        }
      }
      // Connections accepted above have no poll result yet; they wait a
      // round.
      for (std::size_t i = conn_base; i < fds.size(); ++i)
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
          read_from(conns[i - conn_base]);
    }

    if (options_.read_deadline_ms > 0.0) {
      const std::uint64_t now = obs::now_ns();
      const auto budget_ns =
          static_cast<std::uint64_t>(options_.read_deadline_ms * 1e6);
      for (const auto& conn : conns) {
        if (!conn->open.load(std::memory_order_acquire) ||
            conn->partial_since_ns == 0 ||
            now - conn->partial_since_ns < budget_ns)
          continue;
        reject(conn, Counter::read_timeouts, "read_timeout",
               "no complete frame within the read deadline");
        conn->close_socket();
      }
    }
    std::erase_if(conns, [](const std::shared_ptr<Conn>& conn) {
      return !conn->open.load(std::memory_order_acquire);
    });

    if (!draining()) continue;
    if (accepting) {
      accepting = false;
      if (quiet_readers_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          options_.readers)
        close_listeners();
    }
    if (in_flight_.load(std::memory_order_acquire) == 0) break;
  }
  for (const auto& conn : conns) conn->close_socket();
}

void Frontend::read_from(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  const ssize_t n = ::read(conn->fd, buf, sizeof buf);
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (n <= 0) {  // peer closed, or a hard error
    conn->close_socket();
    return;
  }
  conn->buffer.append(buf, static_cast<std::size_t>(n));

  std::string frame;
  while (true) {
    try {
      if (!extract_frame(conn->buffer, frame, options_.max_frame_bytes)) break;
    } catch (const std::exception& e) {
      // Oversized frame announcement: the stream cannot be
      // resynchronized, so answer once and drop the connection.
      reject(conn, Counter::bad_requests, "bad_request", e.what());
      conn->close_socket();
      return;
    }
    admit(conn, std::move(frame));
    if (!conn->open.load(std::memory_order_acquire)) return;
  }
  // Track how long a partial frame has been pending for the deadline sweep.
  if (conn->buffer.empty())
    conn->partial_since_ns = 0;
  else if (conn->partial_since_ns == 0)
    conn->partial_since_ns = obs::now_ns();
}

void Frontend::reject(const std::shared_ptr<Conn>& conn, Counter counter,
                      std::string_view code, std::string_view message) {
  // Readers must never block: one non-blocking send attempt; a client too
  // slow to take it is dropped instead of wedging the reader.
  bump(counter);
  conn->try_send_frame(error_payload(code, message));
}

void Frontend::admit(const std::shared_ptr<Conn>& conn, std::string&& frame) {
  if (draining()) {
    reject(conn, Counter::rejected_shutdown, "shutting_down",
           std::string(options_.role) + " is draining");
    return;
  }
  // Increment first, roll back when over: concurrent readers never admit
  // past the bound (a frame may be shed while a sibling's rolled-back
  // increment is still counted). With one reader the bound is exact.
  if (in_flight_.fetch_add(1, std::memory_order_acq_rel) >=
      options_.queue_capacity) {
    in_flight_.fetch_sub(1, std::memory_order_acq_rel);
    reject(conn, Counter::rejected_overload, "overload",
           "request queue full (capacity " +
               std::to_string(options_.queue_capacity) + "); retry later");
    return;
  }
  bump(Counter::requests);
  backend_.submit(
      [this, conn, frame = std::move(frame), arrival_ns = obs::now_ns()] {
        execute(conn, frame, arrival_ns);
      });
}

// ---------------------------------------------------------------------------
// Jobs

void Frontend::execute(const std::shared_ptr<Conn>& conn,
                       const std::string& frame, std::uint64_t arrival_ns) {
  bool shutdown_requested = false;
  {
    InFlight slot(*this, conn);
    slot.reply = answer(frame, arrival_ns);
    shutdown_requested = slot.reply.shutdown;
  }
  if (shutdown_requested) shutdown();
}

Frontend::Reply Frontend::answer(const std::string& frame,
                                 std::uint64_t arrival_ns) {
  try {
    Json request;
    try {
      request = Json::parse(frame);
      if (!request.is_object())
        throw std::invalid_argument("request must be a JSON object");
    } catch (const std::exception& e) {
      return {error_payload("bad_request", e.what()), Counter::bad_requests};
    }

    const double deadline_ms =
        request.number_or("deadline_ms", options_.default_deadline_ms);
    if (deadline_ms > 0.0) {
      const double waited_ms =
          static_cast<double>(obs::now_ns() - arrival_ns) * 1e-6;
      if (waited_ms > deadline_ms)
        return {error_payload("deadline",
                              "deadline of " + std::to_string(deadline_ms) +
                                  " ms expired while queued (waited " +
                                  std::to_string(waited_ms) + " ms)"),
                Counter::rejected_deadline};
    }

    const std::string op = request.string_or("op", "");
    try {
      return dispatch(op, request, frame, arrival_ns);
    } catch (const std::invalid_argument& e) {
      return {error_payload("bad_request", e.what()), Counter::bad_requests};
    }
  } catch (const std::exception& e) {
    // Engine/system failure: still answer so the client is not left
    // hanging, and keep serving.
    return {error_payload("internal", e.what()), std::nullopt};
  } catch (...) {
    return {error_payload("internal", "unknown error"), std::nullopt};
  }
}

Frontend::Reply Frontend::dispatch(const std::string& op, const Json& request,
                                   const std::string& frame,
                                   std::uint64_t arrival_ns) {
  if (op == "ping") return {ok_payload(false, R"({"pong":true})")};
  if (op == "stats") return {ok_payload(false, stats_json())};
  if (op == "shutdown")
    return {ok_payload(false, R"({"draining":true})"), Counter::completed,
            true};
  if (is_cacheable(op)) {
    const std::string key = canonical_key(request);
    std::optional<std::string> payload = backend_.cached(key);
    if (!payload) {
      bool leader = false;
      payload = *single_flight_.run(
          key,
          [&]() -> SingleFlight::Result {
            return std::make_shared<const std::string>(
                backend_.compute(key, request, frame));
          },
          &leader);
      if (!leader) bump(Counter::coalesced);
    }
    latency_.observe(static_cast<double>(obs::now_ns() - arrival_ns) * 1e-9);
    // A worker that rejects a proxied request counts as a bad request here
    // too, as it would in a single process.
    const bool bad = error_code(*payload) == "bad_request";
    return {std::move(*payload),
            bad ? Counter::bad_requests : Counter::completed};
  }
  if (auto payload = backend_.handle(op, request, frame))
    return {std::move(*payload)};
  throw std::invalid_argument(
      op.empty() ? std::string("missing \"op\" field")
                 : "unknown op '" + op +
                       "' (valid: ping, stats, predict, simulate, inject, "
                       "dse, search, " +
                       std::string(backend_.ops()) + ", shutdown)");
}

// ---------------------------------------------------------------------------
// Stats

Frontend::Stats Frontend::stats() const {
  Stats s;
#define FTBESST_SVC_LOAD(name)                                          \
  s.name = counts_[static_cast<std::size_t>(Counter::name)].load(        \
      std::memory_order_relaxed);
  FTBESST_SVC_COUNTERS(FTBESST_SVC_LOAD)
#undef FTBESST_SVC_LOAD
  s.cache = backend_.cache_stats();
  return s;
}

std::string Frontend::stats_json() {
  const Stats s = stats();
  JsonObject obj;
#define FTBESST_SVC_KEY(name) obj.emplace(#name, Json(s.name));
  FTBESST_SVC_COUNTERS(FTBESST_SVC_KEY)
#undef FTBESST_SVC_KEY
  obj.emplace("in_flight", Json(in_flight_.load(std::memory_order_relaxed)));
  obj.emplace("queue_capacity", Json(options_.queue_capacity));
  backend_.describe(obj);
  return Json(std::move(obj)).dump();
}

}  // namespace ftbesst::svc
