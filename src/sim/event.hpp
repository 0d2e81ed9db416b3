#pragma once
// Events and payloads for the DES kernel.

#include <cstdint>
#include <memory>
#include <new>

#include "sim/detail/payload_pool.hpp"
#include "sim/time.hpp"

namespace ftbesst::sim {

using ComponentId = std::uint32_t;
using PortId = std::uint32_t;

inline constexpr ComponentId kNoComponent = ~ComponentId{0};

/// Base class for event payloads. Concrete simulations subclass this (or use
/// Box<T>) to attach data to an event. Ownership moves with the event.
struct Payload {
  virtual ~Payload() = default;

  // Payloads are allocated and freed once per carrying event — the DES hot
  // path — so they come from the thread-local freelist pool instead of the
  // heap. The sized delete receives the dynamic size (virtual destructor),
  // which is what lets the pool find the right bucket without a header.
  static void* operator new(std::size_t size) {
    return detail::pool_allocate(size);
  }
  static void operator delete(void* p, std::size_t size) noexcept {
    detail::pool_deallocate(p, size);
  }
};

/// Convenience payload wrapping an arbitrary movable value.
template <typename T>
struct Box final : Payload {
  explicit Box(T v) : value(std::move(v)) {}
  T value;
};

template <typename T>
[[nodiscard]] std::unique_ptr<Payload> box(T value) {
  return std::make_unique<Box<T>>(std::move(value));
}

/// Retrieve the value from a Box<T> payload; returns nullptr on type
/// mismatch. (dynamic_cast, so mismatches are detected, not UB.)
template <typename T>
[[nodiscard]] T* unbox(Payload* p) noexcept {
  auto* b = dynamic_cast<Box<T>*>(p);
  return b ? &b->value : nullptr;
}

/// A scheduled event. Ordering is total: (time, priority, source component,
/// per-source sequence), so a run never depends on insertion order.
struct Event {
  SimTime time = 0;
  std::int32_t priority = 0;       ///< lower runs first at equal time
  ComponentId src = kNoComponent;  ///< scheduling component (tie-break)
  std::uint64_t src_seq = 0;       ///< per-source monotonic counter
  ComponentId dst = kNoComponent;
  PortId port = 0;
  std::unique_ptr<Payload> payload;

  /// Strict-weak order for the event queue (earliest first).
  [[nodiscard]] bool before(const Event& other) const noexcept {
    if (time != other.time) return time < other.time;
    if (priority != other.priority) return priority < other.priority;
    if (src != other.src) return src < other.src;
    return src_seq < other.src_seq;
  }
};

}  // namespace ftbesst::sim
