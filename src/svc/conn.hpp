#pragma once
// One accepted client connection of the serving front-end
// (svc/frontend.hpp): a *blocking* fd plus the reader-owned read
// accumulator and the write mutex that serializes response frames.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "svc/wire.hpp"

namespace ftbesst::svc {

struct Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Break the socket without freeing the fd number: tasks may still hold a
  /// reference and attempt a write, which must fail with EPIPE/ENOTCONN
  /// rather than land on a recycled descriptor. close() happens in the
  /// destructor, once the last shared_ptr drops.
  void close_socket() noexcept;

  /// Blocking framed send, serialized by `write_mutex`. Closes the socket
  /// on any write error (peer gone mid-write; the reader sweeps it later).
  void send_frame(std::string_view payload, std::uint32_t max_bytes);

  /// Non-blocking single-attempt framed send for reader-thread rejections: a
  /// client too stalled to take a ~100-byte reply (or whose connection is
  /// busy with a large in-progress response) gets dropped — shedding the
  /// slow consumer instead of the whole accept path.
  void try_send_frame(std::string_view payload);

  const int fd;
  std::string buffer;       ///< reader-owned read accumulator
  /// Monotonic ns timestamp of the first byte of a still-incomplete frame;
  /// 0 when the buffer holds no partial frame. Reader-owned.
  std::uint64_t partial_since_ns = 0;
  std::mutex write_mutex;   ///< serializes response frames
  std::atomic<bool> open{true};
};

}  // namespace ftbesst::svc
