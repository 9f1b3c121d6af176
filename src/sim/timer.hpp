// One-shot timer with a moving deadline, built on plain events.
//
// arm() sets the deadline and the timer keeps at most one live event in
// the queue. Moving the deadline later schedules nothing: the live event
// fires early and re-schedules itself at the deadline. Moving it earlier
// schedules one event at the new deadline and retires the old one, whose
// captured sequence token no longer matches when it fires. disarm() only
// clears the flag. A sender that re-arms its retransmission timer on
// every ACK thus costs about one event per timeout period, not one per
// ACK. The expiry callback runs exactly at the deadline, with armed()
// false while it runs.
//
// Lifetime: the events capture `this`, so the timer's owner must outlive
// every run of its simulation — the rule a sender's other [this] events
// already rely on.
#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"

namespace p4s::sim {

class Timer {
 public:
  Timer(EventQueue& queue, EventFn on_expire)
      : queue_(queue), on_expire_(std::move(on_expire)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arm to expire `delay` ns from now, replacing any deadline.
  void arm(SimTime delay) {
    deadline_ = queue_.now() + delay;
    armed_ = true;
    if (event_live_ && event_at_ <= deadline_) return;  // it re-schedules
    schedule(deadline_);
  }
  void disarm() { armed_ = false; }
  bool armed() const { return armed_; }

 private:
  void schedule(SimTime at) {
    const std::uint64_t token = ++token_;
    event_at_ = at;
    event_live_ = true;
    queue_.schedule_at(at, [this, token]() { fire(token); });
  }

  void fire(std::uint64_t token) {
    if (token != token_) return;  // superseded by an earlier deadline
    event_live_ = false;
    if (!armed_) return;
    if (queue_.now() < deadline_) {
      schedule(deadline_);
      return;
    }
    armed_ = false;
    on_expire_();
  }

  EventQueue& queue_;
  EventFn on_expire_;
  SimTime deadline_ = 0;
  SimTime event_at_ = 0;     // time of the live event
  std::uint64_t token_ = 0;  // sequence number of the live event
  bool armed_ = false;
  bool event_live_ = false;
};

}  // namespace p4s::sim
