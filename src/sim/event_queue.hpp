// Discrete-event scheduler.
//
// An explicit vector-backed binary min-heap keyed by (time, sequence)
// gives O(log n) schedule/pop with deterministic FIFO ordering for
// simultaneous events — determinism matters because every experiment in
// EXPERIMENTS.md must be exactly reproducible.
//
// Event records live in a slab (a vector of slots recycled through a free
// list), so steady-state scheduling performs no heap allocation: heap
// entries stay 24 bytes, and the slot's std::function reuses its
// small-object storage across events (hot-path callbacks capture a
// pointer or two and fit inline).
//
// Events cannot be cancelled. A callback that may no longer be wanted
// when it fires checks its owner's state and returns; a timer whose
// deadline keeps moving (TCP and QUIC retransmission) is a sim::Timer,
// which keeps one live event per deadline instead of one per re-arm.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/units.hpp"

namespace p4s::sim {

using EventFn = std::function<void()>;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Monotonically non-decreasing.
  SimTime now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (>= now()). Events at
  /// equal times fire in scheduling order.
  void schedule_at(SimTime at, EventFn fn);

  /// Schedule `fn` to run `delay` ns from now.
  void schedule_in(SimTime delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue is empty or `until` is reached. Events
  /// scheduled exactly at `until` DO run. Afterwards now() == until
  /// whenever until > now() on entry — the clock advances to the horizon
  /// even if the queue drained early (callers treat run_until(t) as
  /// "simulate up to t", so wall-clock-style periods keep their length
  /// regardless of event density; pinned by EventQueue.RunUntil* tests).
  void run_until(SimTime until);

  /// Run until the queue drains completely.
  void run();

  /// Execute at most one event; returns false if none were pending.
  bool step();

  /// Events scheduled and not yet run.
  std::size_t pending_events() const { return heap_.size(); }
  std::uint64_t executed_events() const { return executed_; }
  /// High-water mark of pending_events() over the queue's lifetime (the
  /// "peak heap events" figure in BENCH_*.json).
  std::size_t peak_pending_events() const { return peak_live_; }

 private:
  // Key fields are denormalized into the heap entry so sift compares
  // touch one contiguous array instead of chasing slot indices.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void pop_entry();  // remove heap_[0], restore heap order
  bool pop_and_run();

  std::vector<EventFn> slab_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<HeapEntry> heap_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace p4s::sim
