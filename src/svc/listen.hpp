#pragma once
// Listening-socket plumbing for the serving front-end (svc/frontend.hpp).
//
// Both bind helpers return a non-blocking, close-on-exec listening fd that
// the caller owns. bind_unix carries the daemon's socket-stealing policy:
// a leftover socket file is only replaced when nothing answers on it.

#include <string>

namespace ftbesst::svc {

void set_nonblocking(int fd);
void set_cloexec(int fd);
[[noreturn]] void throw_errno(const char* what);

/// Bind + listen on a unix-domain socket. A stale socket file (nothing
/// answering a connect() probe) is unlinked and replaced; a path a live
/// daemon still answers on throws EADDRINUSE instead of stealing it —
/// unlinking a live daemon's path would silently black-hole its future
/// clients. Sets *bound once the path is bound (the caller must unlink it
/// on teardown and on post-bind startup failure).
[[nodiscard]] int bind_unix(const std::string& path, bool* bound);

/// Bind + listen on 127.0.0.1:`port` (0 = ephemeral). The actual port is
/// stored in *bound_port.
[[nodiscard]] int bind_tcp(int port, int* bound_port);

}  // namespace ftbesst::svc
