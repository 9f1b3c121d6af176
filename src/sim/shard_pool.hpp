// Worker pool for parallel sharded discrete-event execution.
//
// The fabric splits the simulation into one main timeline (topology,
// TCP, control planes, transport — everything that interacts) plus N
// independent pipeline shards (one per monitored switch: the mirror
// stream through the P4 program). Each shard owns its own event queue
// and RNG stream and is advanced by exactly one worker thread under
// conservative lookahead: the main timeline publishes a monotonically
// increasing *grant* per shard — "every boundary event with timestamp
// <= grant has been handed over; execute up to there" — derived from
// the TAP propagation latency (a mirror copy taken at main time T
// cannot be delivered before T + tap_latency, so granting T-1 while the
// main clock sits at T is always safe).
//
// Workers advance their shards to the latest grant and publish a
// *watermark* ("executed through") back; the main timeline blocks on
// the watermark only at read barriers (a control plane about to read
// its switch's registers, an end-of-run sync). Between barriers main
// and workers run fully overlapped. Grant and watermark stores carry
// release/acquire ordering, so a barrier is also the happens-before
// edge that lets the main thread read shard-owned state race-free.
//
// Determinism: a shard's execution depends only on its boundary stream
// (in the FIFO order of its BoundaryQueue), never on worker count or
// scheduling; the `scheduling_jitter_seed` test knob injects random
// worker delays to prove exactly that.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/boundary_queue.hpp"
#include "util/units.hpp"

namespace p4s::sim {

class ShardPool {
 public:
  /// One shard of the parallel fabric. advance_to() is only ever called
  /// from the shard's owning worker thread. A worker runs a shard only
  /// when its grant moves past its watermark: every piece of boundary
  /// work is covered by a grant published after it was handed over.
  class Shard {
   public:
    virtual ~Shard() = default;
    /// Execute every boundary delivery with timestamp <= `grant`
    /// (deliveries at exactly `grant` DO run), in boundary order.
    virtual void advance_to(SimTime grant) = 0;
  };

  struct Config {
    std::size_t workers = 1;
    /// Test-only chaos knob: seed for per-worker random yields/naps
    /// between pump iterations. Outputs must be invariant under it —
    /// the parallel-determinism battery runs with it set.
    std::uint64_t scheduling_jitter_seed = 0;
  };

  explicit ShardPool(Config config) : config_(config) {}
  ~ShardPool() { stop(); }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Register a shard (before start()). Returns its shard id; shards
  /// are assigned to workers round-robin by id.
  std::size_t add_shard(Shard& shard);

  /// Launch the worker threads. Idempotent.
  void start();

  /// Stop and join all workers. Idempotent; called by the destructor.
  void stop();

  // ---- Producer (main-timeline) protocol ------------------------------
  /// Raise a shard's grant (monotonic: smaller values are ignored) and
  /// wake its worker.
  void publish_grant(std::size_t shard, SimTime grant);
  /// Raise every shard's grant.
  void publish_grant_all(SimTime grant);
  /// Grant `grant` and block until the shard's watermark reaches it —
  /// after this returns, reading the shard's state from the calling
  /// thread is race-free until the next grant is published.
  void barrier(std::size_t shard, SimTime grant);
  void barrier_all(SimTime grant);

  /// True once a worker died on an exception; barrier() rethrows the
  /// stored reason as std::runtime_error at the next call.
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Rethrow a worker failure (no-op while healthy) — producers waiting
  /// on a drained inbox call this so a dead worker can't hang them.
  void throw_if_failed() const;

  std::size_t worker_count() const { return workers_.size(); }
  SimTime watermark(std::size_t shard) const {
    return shards_[shard]->watermark.load(std::memory_order_acquire);
  }
  /// Barrier waits that actually had to block (contention telemetry).
  std::uint64_t barrier_waits() const {
    return barrier_waits_.load(std::memory_order_relaxed);
  }

 private:
  struct ShardState {
    explicit ShardState(Shard& s) : shard(&s) {}
    Shard* shard;
    std::size_t worker = 0;
    alignas(kCacheLineBytes) std::atomic<SimTime> grant{0};
    alignas(kCacheLineBytes) std::atomic<SimTime> watermark{0};
  };
  struct Worker {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> parked{false};
    std::vector<std::size_t> owned;  // shard ids, fixed after start()
  };

  void worker_main(std::size_t index);
  bool pump_one(ShardState& s);
  void wake_worker(std::size_t worker_index);
  void notify_main();
  void record_failure(const char* what);

  Config config_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  // Main-thread barrier wait channel.
  std::mutex main_mu_;
  std::condition_variable main_cv_;
  std::atomic<bool> main_waiting_{false};
  std::atomic<std::uint64_t> barrier_waits_{0};

  std::atomic<bool> failed_{false};
  std::string failure_;  // guarded by main_mu_
};

}  // namespace p4s::sim
