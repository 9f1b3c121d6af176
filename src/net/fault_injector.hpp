// FaultInjector: deterministic fault schedules for a ReportChannel.
//
// Two modes, freely combined:
//
//   * scripted — an explicit list of (time, kind, duration) entries keyed
//     off the sim clock ("reset at 10 s, 2 s stall at 20 s"), for
//     regression tests that must know exactly which faults fired;
//   * random — Poisson reset/stall processes from a private seeded PRNG,
//     active until a configurable horizon, for property tests sweeping
//     many schedules.
//
// The injector never touches the channel outside scheduled events, and
// counts what it actually injected so tests can assert that the faults
// fired (a resilience test that accidentally ran fault-free proves
// nothing). Every future scenario that wants a misbehaving report wire
// goes through this one class.
#pragma once

#include <cstdint>
#include <vector>

#include "net/report_channel.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace p4s::net {

class FaultInjector {
 public:
  enum class FaultKind : std::uint8_t { kReset, kStall };

  struct ScheduledFault {
    SimTime at = 0;
    FaultKind kind = FaultKind::kReset;
    /// Stall length; ignored for resets.
    SimTime duration = 0;
  };

  struct RandomProfile {
    /// Mean faults per second of each kind; 0 disables that kind.
    double resets_per_second = 0.0;
    double stalls_per_second = 0.0;
    /// Stall lengths drawn uniformly from [stall_min, stall_max].
    SimTime stall_min = units::milliseconds(50);
    SimTime stall_max = units::milliseconds(500);
    /// No random fault is injected at or after this time, so a run can
    /// always drain its retry queues before the horizon you run_until.
    SimTime until = units::seconds(30);
    std::uint64_t seed = 1;
  };

  FaultInjector(sim::Simulation& sim, ReportChannel& channel)
      : sim_(sim), channel_(channel), rng_(1) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Queue one scripted fault (call before arm()).
  void add(ScheduledFault fault) { script_.push_back(fault); }
  void reset_at(SimTime at) { add({at, FaultKind::kReset, 0}); }
  void stall_at(SimTime at, SimTime duration) {
    add({at, FaultKind::kStall, duration});
  }

  /// Enable the random processes (call before arm()).
  void enable_random(RandomProfile profile) {
    random_ = profile;
    random_enabled_ = true;
  }

  /// Schedule everything onto the sim clock. Call once.
  void arm();

  std::uint64_t resets_injected() const { return resets_injected_; }
  std::uint64_t stalls_injected() const { return stalls_injected_; }

 private:
  void inject(const ScheduledFault& fault);
  void schedule_next_random_reset();
  void schedule_next_random_stall();

  sim::Simulation& sim_;
  ReportChannel& channel_;
  sim::Rng rng_;
  std::vector<ScheduledFault> script_;
  RandomProfile random_;
  bool random_enabled_ = false;
  bool armed_ = false;
  std::uint64_t resets_injected_ = 0;
  std::uint64_t stalls_injected_ = 0;
};

}  // namespace p4s::net
