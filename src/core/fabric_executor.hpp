// FabricExecutor — the runtime that delivers mirror copies to the
// monitoring fabric's pipelines.
//
// Every monitored switch's mirror pipeline (capture tee -> P4 parser ->
// data-plane program) is a *shard* with its own sim::Simulation clock —
// the dominant per-packet cost, and the only part of a site that is
// independent of every other site. Everything that interacts stays on
// the main timeline: the topology, TCP, the control planes, the report
// transport, the archiver. The TAP pair never schedules a delivery: it
// hands each copy across the shard's boundary, and the shard replays it
// at its delivery time. With zero workers (the serial run) the main
// thread does that replay itself, inside the grant pump, the driver
// barriers and overflow handovers; with N workers, ShardPool threads do
// it while the main timeline runs on. That split is what keeps seeded
// runs byte-identical at any worker count: the main timeline's event
// order never depends on the shards, and a shard's outputs are a pure
// function of its ordered boundary stream.
//
// Protocol per shard (see sim/shard_pool.hpp for the memory-ordering
// contract):
//   * the TAP pushes MirrorFrames (serialized bytes + delivery
//     timestamp = mirror time + tap latency) into a lock-free SPSC
//     inbox, in non-decreasing timestamp order;
//   * a recurring *grant pump* on the main timeline publishes lookahead
//     grants of main_now - 1 — safe because a frame mirrored at main
//     time T cannot be delivered before T + tap_latency > T - 1 — which
//     also bounds the inbox to about one pump period of copies;
//   * the shard drains its inbox up to the grant in FIFO order,
//     advancing its own clock to each frame's delivery time before
//     feeding the sink (so P4 ingress timestamps and pcap records are
//     the delivery times). Nothing else ever runs on a shard: no event
//     is scheduled on a pipeline simulation;
//   * a control plane about to read data-plane registers (or change
//     its measurement programs) at main time T calls sync(): a barrier
//     to T - 1, exactly the deliveries that precede a driver tick at T
//     (a tick armed a full interval earlier precedes a copy due at T
//     that was mirrored only tap_latency earlier);
//   * run_until(t) ends with an inclusive barrier_all(t), after which
//     reading any shard-owned state from the main thread is race-free.
//
// A full inbox never stalls a grant past the main clock: a copy that
// finds it full waits, in order, in a main-thread overflow queue, and
// every grant is capped so that no copy still outside the inbox falls
// under it. Handing the overflow over means first running the shard up
// to just before the oldest waiting copy (on the worker, or inline with
// zero workers) — back-pressure on the main thread only once such a
// copy is due. A read at main time T thus sees exactly the copies due
// before T at any mirror rate and any tap latency. Only an inbox full
// of copies due in one nanosecond cannot be drained; that throws.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/tap.hpp"
#include "sim/shard_pool.hpp"
#include "sim/simulation.hpp"

namespace p4s::core {

class FabricExecutor {
 public:
  struct Config {
    /// Worker threads advancing the shards (clamped to the shard count);
    /// 0 = the serial run, every shard advanced on the calling thread.
    std::size_t workers = 0;
    /// Test-only: forwarded to ShardPool (randomized worker stalls for
    /// the determinism battery).
    std::uint64_t scheduling_jitter_seed = 0;
  };

  FabricExecutor(sim::Simulation& main_sim, Config config);
  ~FabricExecutor();

  FabricExecutor(const FabricExecutor&) = delete;
  FabricExecutor& operator=(const FabricExecutor&) = delete;

  /// Register one monitored switch's pipeline: frames pushed into
  /// boundary(id) replay against `pipeline_sim`'s clock into `entry`
  /// (the capture tee or the P4 switch). Call before start().
  std::size_t add_switch(sim::Simulation& pipeline_sim,
                         net::MirrorSink& entry);

  /// The producer end the TAP pair should push into.
  net::MirrorBoundary& boundary(std::size_t shard);

  /// Launch the workers (if any) and schedule the grant pump.
  /// Idempotent.
  void start();
  /// Stop and join the workers (destructor calls this too).
  void stop();

  /// Driver-read barrier: the shard has executed every delivery
  /// strictly before the main clock's current time.
  void sync(std::size_t shard);
  /// Inclusive end-of-window barrier: every shard has executed every
  /// delivery with timestamp <= t. After this, shard-owned state is
  /// readable from the calling thread until the pump next fires.
  void barrier_all(SimTime t);

  /// Running worker threads (0 before start() and in the serial run).
  std::size_t worker_count() const { return pool_.worker_count(); }
  /// Pushes that found the inbox full or copies already waiting outside
  /// it (main-thread telemetry).
  std::uint64_t blocked_pushes() const;
  /// Barriers that had to block on a trailing worker.
  std::uint64_t barrier_waits() const { return pool_.barrier_waits(); }

 private:
  class SwitchShard;

  /// Period of the grant pump on the main timeline. Smaller = shards
  /// trail the main clock more closely; larger = fewer main-loop
  /// events. Purely a throughput constant — correctness and outputs are
  /// invariant under it.
  static constexpr SimTime kGrantPeriod = units::microseconds(500);
  /// Capacity of each shard's inbox, in frames (136 bytes each; a ring's
  /// pages are touched only as frames reach them). Without workers the
  /// pump drains it every kGrantPeriod: at most ~210 copies were queued
  /// on the shipped single-site workloads. A worker that falls behind
  /// leaves more: up to ~830 on fabric16 (16 sites, 3 workers). Copies
  /// beyond it wait in the shard's overflow queue; outputs never depend
  /// on the capacity.
  static constexpr std::size_t kInboxFrames = 1024;

  sim::Simulation& main_sim_;
  sim::ShardPool pool_;
  std::vector<std::unique_ptr<SwitchShard>> shards_;
  bool started_ = false;
};

}  // namespace p4s::core
