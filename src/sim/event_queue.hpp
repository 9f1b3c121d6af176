// Discrete-event scheduler.
//
// An explicit vector-backed binary min-heap keyed by (time, sequence)
// gives O(log n) schedule/pop with deterministic FIFO ordering for
// simultaneous events — determinism matters because every experiment in
// EXPERIMENTS.md must be exactly reproducible.
//
// Event records live in a slab (a vector of slots recycled through a free
// list), so scheduling a callback that fits std::function's inline
// storage (a pointer or two) performs no heap allocation once the slab
// and heap have grown: heap entries stay 24 bytes, and a slot's
// std::function reuses its small-object storage across events.
//
// Lanes carry event streams whose times never decrease, such as a link's
// deliveries (one transmission at a time, constant propagation delay).
// A lane is one fixed callback registered once (add_lane); schedule_lane
// appends a (time, seq) entry to the lane's FIFO, and only the lane's
// earliest entry sits in the heap. Firing it refills that heap entry
// with the lane's next one and one sift_down, so a deep lane costs the
// heap one entry instead of one per event and captures nothing per event.
// Ordering rule: seq is drawn at schedule time from the same counter as
// schedule_at's, so lane and heap events fire in exactly the (time, seq)
// order one heap would give them. A lane entry earlier than the lane's
// last one throws instead of reordering the lane.
//
// Events cannot be cancelled. A callback that may no longer be wanted
// when it fires checks its owner's state and returns; a timer whose
// deadline keeps moving (TCP and QUIC retransmission) is a sim::Timer,
// which keeps one live event per deadline instead of one per re-arm.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "util/chunked_fifo.hpp"
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

  /// Register a lane that runs `fn` once per entry scheduled on it; the
  /// returned id names it to schedule_lane. Lanes live as long as the
  /// queue, so `fn`'s captures must outlive every entry scheduled on it.
  std::uint32_t add_lane(EventFn fn);

  /// Schedule one run of lane `lane`'s callback at `at` (>= now()). `at`
  /// must not be earlier than the lane's previous entry; both errors
  /// throw std::invalid_argument.
  void schedule_lane(std::uint32_t lane, SimTime at);

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

  /// Events scheduled and not yet run, lane entries included.
  std::size_t pending_events() const { return heap_.size() + lane_backlog_; }
  std::uint64_t executed_events() const { return executed_; }
  /// High-water mark of pending_events() over the queue's lifetime (the
  /// "peak heap events" figure in BENCH_*.json).
  std::size_t peak_pending_events() const { return peak_live_; }

 private:
  // Key fields are denormalized into the heap entry so sift compares
  // touch one contiguous array instead of chasing slot indices.
  // `slot` indexes slab_, or lanes_ when kLaneBit is set.
  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kLaneBit = 1u << 31;

  struct LaneEntry {
    SimTime time;
    std::uint64_t seq;
  };
  struct Lane {
    explicit Lane(EventFn f) : fn(std::move(f)) {}
    EventFn fn;
    util::ChunkedFifo<LaneEntry> backlog;  // entries behind the heap one
    SimTime tail = 0;                      // time of the latest entry
    bool in_heap = false;
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
  // A deque keeps a running lane's callback in place if it adds a lane.
  std::deque<Lane> lanes_;
  std::size_t lane_backlog_ = 0;  // entries in every Lane::backlog
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t peak_live_ = 0;
};

}  // namespace p4s::sim
