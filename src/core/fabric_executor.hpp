// FabricExecutor — the parallel runtime of the monitoring fabric.
//
// In serial mode every monitored switch's mirror pipeline (TAP delivery
// -> capture tee -> P4 parser -> data-plane program) executes inline on
// the one simulation timeline. The executor moves exactly that pipeline
// — the dominant per-packet cost, and the only part of a site that is
// independent of every other site — onto per-switch *shards*, each
// advancing its own sim::Simulation on a ShardPool worker thread.
// Everything that interacts stays on the main timeline: the topology,
// TCP, the control planes, the report transport, the archiver. That
// split is what keeps seeded runs byte-identical at any worker count:
// the main timeline's event order is untouched (mirror copies are handed
// across a boundary instead of being scheduled), and a shard's outputs
// are a pure function of its ordered boundary stream.
//
// Protocol per shard (see sim/shard_pool.hpp for the memory-ordering
// contract):
//   * the TAP pushes MirrorFrames (serialized bytes + delivery
//     timestamp = mirror time + tap latency) into a lock-free SPSC
//     inbox, in non-decreasing timestamp order;
//   * a recurring *grant pump* on the main timeline publishes lookahead
//     grants of main_now - 1 — safe because a frame mirrored at main
//     time T cannot be delivered before T + tap_latency > T - 1;
//   * the shard drains its inbox up to the grant in FIFO order,
//     advancing its own clock to each frame's delivery time before
//     feeding the sink (so P4 ingress timestamps and pcap records match
//     the serial run). Nothing else ever runs on a shard: no event is
//     scheduled on a pipeline simulation;
//   * a control plane about to read data-plane registers at main time T
//     calls sync(): a barrier to T - 1, exactly the set of deliveries a
//     serial run would have executed before a tick at T (the serial
//     queue's FIFO rule: a driver tick armed a full interval earlier
//     precedes a delivery at T armed only tap_latency earlier);
//   * run_until(t) ends with an inclusive barrier_all(t), after which
//     reading any shard-owned state from the main thread is race-free.
//
// A full inbox never deadlocks: push() publishes the maximal safe grant
// (frame.at - 1 — every later frame is mirrored no earlier than this
// one, so its delivery is no earlier either), which wakes the worker,
// and waits for space; only frames due at exactly the same nanosecond
// can remain ungrantable, and a site cannot mirror a ring's worth of
// copies in one instant.
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
    /// Worker threads advancing the shards (clamped to the shard count).
    std::size_t workers = 2;
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

  /// Launch the workers and schedule the grant pump. Idempotent.
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

  std::size_t worker_count() const { return pool_.worker_count(); }
  /// Producer-side stalls on a full inbox (main-thread telemetry).
  std::uint64_t blocked_pushes() const;
  /// Barriers that had to block on a trailing worker.
  std::uint64_t barrier_waits() const { return pool_.barrier_waits(); }

 private:
  class SwitchShard;

  /// Period of the grant pump on the main timeline. Smaller = workers
  /// trail the main clock more closely; larger = fewer main-loop
  /// events. Purely a throughput constant — correctness and outputs are
  /// invariant under it.
  static constexpr SimTime kGrantPeriod = units::microseconds(500);

  sim::Simulation& main_sim_;
  sim::ShardPool pool_;
  std::vector<std::unique_ptr<SwitchShard>> shards_;
  bool started_ = false;
};

}  // namespace p4s::core
