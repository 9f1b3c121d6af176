// Simulation: owns the event queue and the root PRNG, and is handed by
// reference to every component. One Simulation == one deterministic run.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "util/units.hpp"

namespace p4s::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : rng_(seed) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return events_.now(); }
  EventQueue& events() { return events_; }
  Rng& rng() { return rng_; }

  void at(SimTime t, EventFn fn) { events_.schedule_at(t, std::move(fn)); }
  void after(SimTime delay, EventFn fn) {
    events_.schedule_in(delay, std::move(fn));
  }

  /// Schedule `fn` at `start` and then every `period` until it returns
  /// false or the run ends.
  void every(SimTime start, SimTime period, std::function<bool()> fn);

  void run_until(SimTime until) { events_.run_until(until); }
  void run() { events_.run(); }

  /// Next default TCP destination port (iperf3 convention: 5201, 5202,
  /// ...). Per-run state — every Simulation draws the identical sequence
  /// regardless of what other runs exist in the process. (A process-
  /// global counter here once forced tests to pin ports explicitly.)
  std::uint16_t allocate_default_port() { return next_default_port_++; }

 private:
  void schedule_tick(SimTime t, SimTime period,
                     std::shared_ptr<std::function<bool()>> fn);

  EventQueue events_;
  Rng rng_;
  std::uint16_t next_default_port_ = 5201;
};

}  // namespace p4s::sim
