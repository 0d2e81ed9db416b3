#pragma once
// Thread-local freelist allocator for event payloads.
//
// Every payload-carrying event used to pay one malloc and one free on the
// DES hot path (net::DesNetwork allocates a FlowMsg per message). Payloads
// are small and short-lived, so freed blocks are cached on a per-thread,
// size-bucketed freelist and handed straight back to the next allocation.
//
// Thread safety: all freelist state is thread_local, so Simulations running
// at once on different pool threads share nothing and need no
// synchronization — a block freed on thread B joins B's freelist even if
// thread A allocated it. Caches release their blocks to the heap when the
// thread exits.

#include <cstddef>
#include <cstdint>

namespace ftbesst::sim::detail {

struct PayloadPoolStats {
  std::uint64_t allocations = 0;    ///< pool_allocate calls (this thread)
  std::uint64_t freelist_hits = 0;  ///< served without touching the heap
  std::uint64_t deallocations = 0;  ///< pool_deallocate calls (this thread)
};

[[nodiscard]] void* pool_allocate(std::size_t size);
void pool_deallocate(void* p, std::size_t size) noexcept;

/// Allocation statistics for the calling thread.
[[nodiscard]] PayloadPoolStats payload_pool_stats() noexcept;

/// Release the calling thread's cached blocks back to the heap.
void payload_pool_trim() noexcept;

}  // namespace ftbesst::sim::detail
