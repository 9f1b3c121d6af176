// Lock-free SPSC ring for cross-shard boundary events.
//
// The parallel fabric hands events across shard boundaries (main
// timeline -> per-switch pipeline shard) through one of these per
// boundary: exactly one producer thread pushes and exactly one consumer
// thread pops, so a fixed-capacity ring with two monotonically
// increasing cursors needs no locks and no CAS loops — each side owns
// one cursor and reads the other with acquire ordering.
//
// Messages must be pushed in non-decreasing timestamp order (the
// producer is itself a discrete-event loop, so this is free); the
// consumer then sees a totally ordered stream — the ring's FIFO order
// is the delivery order — and can replay it without a barrier.
//
// Capacity is fixed at construction (power of two). try_push fails when
// the ring is full; the producer decides how to make room (the fabric
// publishes a fresh lookahead grant and waits for the consumer to
// drain — see ShardPool).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace p4s::sim {

#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kCacheLineBytes =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kCacheLineBytes = 64;
#endif

template <typename T>
class BoundaryQueue {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit BoundaryQueue(std::size_t capacity = 8192) {
    std::size_t cap = 2;
    while (cap < capacity) cap *= 2;
    ring_.resize(cap);
    mask_ = cap - 1;
  }

  BoundaryQueue(const BoundaryQueue&) = delete;
  BoundaryQueue& operator=(const BoundaryQueue&) = delete;

  /// Producer side. Returns false when the ring is full.
  bool try_push(const T& value) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    ring_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pointer to the oldest message, or nullptr when
  /// empty. Valid until the matching pop().
  T* front() {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return nullptr;
    }
    return &ring_[head & mask_];
  }

  /// Consumer side: release the slot returned by front().
  void pop() {
    head_.store(head_.load(std::memory_order_relaxed) + 1,
                std::memory_order_release);
  }

  /// Producer-side view of the backlog (exact for the producer since
  /// only the consumer can shrink it concurrently).
  std::size_t size_approx() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_relaxed) -
                                    head_.load(std::memory_order_acquire));
  }

  std::size_t capacity() const { return mask_ + 1; }

 private:
  std::vector<T> ring_;
  std::size_t mask_ = 0;
  // Producer-owned cursor + its cached view of the consumer's, on their
  // own cache line so pushes never ping-pong with pops.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

}  // namespace p4s::sim
