#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace p4s::sim {

void EventQueue::schedule_at(SimTime at, EventFn fn) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue: scheduling into the past");
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  slab_[slot] = std::move(fn);

  heap_.push_back(HeapEntry{at, next_seq_++, slot});
  sift_up(heap_.size() - 1);
  peak_live_ = std::max(peak_live_, pending_events());
}

std::uint32_t EventQueue::add_lane(EventFn fn) {
  lanes_.emplace_back(std::move(fn));
  return static_cast<std::uint32_t>(lanes_.size() - 1);
}

void EventQueue::schedule_lane(std::uint32_t lane, SimTime at) {
  if (at < now_) {
    throw std::invalid_argument("EventQueue: scheduling into the past");
  }
  Lane& l = lanes_[lane];
  if (at < l.tail) {
    throw std::invalid_argument(
        "EventQueue: lane entry earlier than the lane's tail");
  }
  l.tail = at;
  if (l.in_heap) {
    l.backlog.push(LaneEntry{at, next_seq_++});
    ++lane_backlog_;
  } else {
    l.in_heap = true;
    heap_.push_back(HeapEntry{at, next_seq_++, lane | kLaneBit});
    sift_up(heap_.size() - 1);
  }
  peak_live_ = std::max(peak_live_, pending_events());
}

void EventQueue::sift_up(std::size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

void EventQueue::pop_entry() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

bool EventQueue::pop_and_run() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_.front();
  assert(top.time >= now_);
  if ((top.slot & kLaneBit) != 0) {
    // The lane's next entry (later than this one) takes over its heap
    // entry, so one sift_down replaces a pop and a push.
    Lane& lane = lanes_[top.slot & ~kLaneBit];
    if (lane.backlog.empty()) {
      lane.in_heap = false;
      pop_entry();
    } else {
      const LaneEntry next = lane.backlog.front();
      lane.backlog.pop();
      --lane_backlog_;
      heap_.front() = HeapEntry{next.time, next.seq, top.slot};
      sift_down(0);
    }
    now_ = top.time;
    ++executed_;
    lane.fn();
    return true;
  }
  pop_entry();
  now_ = top.time;
  // Move the callback out and free its slot before running: the callback
  // may schedule into (and reuse) the slot it just vacated.
  EventFn fn = std::move(slab_[top.slot]);
  slab_[top.slot] = nullptr;  // release captures promptly
  free_slots_.push_back(top.slot);
  ++executed_;
  fn();
  return true;
}

bool EventQueue::step() { return pop_and_run(); }

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().time <= until) pop_and_run();
  // Advance to the horizon even when the queue drained early: see the
  // contract on the declaration.
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (pop_and_run()) {
  }
}

}  // namespace p4s::sim
