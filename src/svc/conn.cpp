#include "svc/conn.hpp"

#include <sys/socket.h>
#include <unistd.h>

namespace ftbesst::svc {

Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

void Conn::close_socket() noexcept {
  if (open.exchange(false, std::memory_order_acq_rel))
    ::shutdown(fd, SHUT_RDWR);
}

void Conn::send_frame(std::string_view payload, std::uint32_t max_bytes) {
  std::lock_guard<std::mutex> lock(write_mutex);
  if (!open.load(std::memory_order_acquire)) return;
  try {
    write_frame(fd, payload, max_bytes);
  } catch (const std::exception&) {
    close_socket();  // peer gone mid-write; the reader sweeps it
  }
}

void Conn::try_send_frame(std::string_view payload) {
  std::unique_lock<std::mutex> lock(write_mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    close_socket();
    return;
  }
  if (!open.load(std::memory_order_acquire)) return;
  unsigned char header[4];
  encode_length(static_cast<std::uint32_t>(payload.size()), header);
  std::string frame(reinterpret_cast<const char*>(header), 4);
  frame += payload;
  const ssize_t n =
      ::send(fd, frame.data(), frame.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n != static_cast<ssize_t>(frame.size())) close_socket();
}

}  // namespace ftbesst::svc
