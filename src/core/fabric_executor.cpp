#include "core/fabric_executor.hpp"

#include <stdexcept>
#include <thread>

namespace p4s::core {

// One monitored switch's pipeline shard: the consumer end of the TAP
// boundary and the ShardPool execution hook. push() runs on the main
// thread, advance_to() on the shard's worker; the SPSC inbox and the
// pool's grant/watermark protocol are the only points of contact.
class FabricExecutor::SwitchShard : public sim::ShardPool::Shard,
                                    public net::MirrorBoundary {
 public:
  SwitchShard(FabricExecutor& fabric, sim::Simulation& pipeline_sim,
              net::MirrorSink& entry)
      : fabric_(fabric), pipeline_sim_(pipeline_sim), entry_(entry) {}

  void bind(std::size_t id) { id_ = id; }

  // ---- main thread ----------------------------------------------------
  void push(const net::MirrorFrame& frame) override {
    if (inbox_.try_push(frame)) return;
    // Inbox full. Publish the maximal safe grant — every frame mirrored
    // after this one is delivered at or after frame.at, so frame.at - 1
    // can never be invalidated — and wait for the worker to drain. A
    // larger grant is what wakes a parked worker, and a parked worker
    // has drained everything up to its watermark, so only frames due at
    // exactly frame.at stay ungrantable; a site cannot mirror a ring's
    // worth of copies in a single nanosecond, so space is guaranteed to
    // appear.
    ++blocked_pushes_;
    fabric_.pool_.publish_grant(id_, frame.at == 0 ? 0 : frame.at - 1);
    while (!inbox_.try_push(frame)) {
      fabric_.pool_.throw_if_failed();
      std::this_thread::yield();
    }
  }

  std::uint64_t blocked_pushes() const { return blocked_pushes_; }

  // ---- worker thread --------------------------------------------------
  void advance_to(SimTime grant) override {
    while (net::MirrorFrame* frame = inbox_.front()) {
      if (frame->at > grant) break;
      // Nothing is scheduled on a pipeline simulation (the switch and
      // the capture tee only read its clock), so run_until just parks
      // the shard clock at the frame's delivery time.
      pipeline_sim_.run_until(frame->at);
      frame->deliver_to(entry_);
      inbox_.pop();
    }
    if (grant > pipeline_sim_.now()) pipeline_sim_.run_until(grant);
  }

 private:
  FabricExecutor& fabric_;
  sim::Simulation& pipeline_sim_;
  net::MirrorSink& entry_;
  sim::BoundaryQueue<net::MirrorFrame> inbox_;
  std::size_t id_ = 0;
  std::uint64_t blocked_pushes_ = 0;  // main-thread owned
};

FabricExecutor::FabricExecutor(sim::Simulation& main_sim, Config config)
    : main_sim_(main_sim),
      pool_(sim::ShardPool::Config{
          config.workers == 0 ? 1 : config.workers,
          config.scheduling_jitter_seed}) {}

FabricExecutor::~FabricExecutor() { stop(); }

std::size_t FabricExecutor::add_switch(sim::Simulation& pipeline_sim,
                                       net::MirrorSink& entry) {
  if (started_) {
    throw std::logic_error("FabricExecutor: add_switch after start()");
  }
  shards_.push_back(
      std::make_unique<SwitchShard>(*this, pipeline_sim, entry));
  const std::size_t id = pool_.add_shard(*shards_.back());
  shards_.back()->bind(id);
  return id;
}

net::MirrorBoundary& FabricExecutor::boundary(std::size_t shard) {
  return *shards_.at(shard);
}

void FabricExecutor::start() {
  if (started_) return;
  started_ = true;
  pool_.start();
  // Grant pump: keep the workers trailing the main clock so pipelines
  // overlap with topology/TCP execution between driver reads.
  main_sim_.every(kGrantPeriod, kGrantPeriod, [this]() {
    const SimTime now = main_sim_.now();
    pool_.publish_grant_all(now == 0 ? 0 : now - 1);
    return true;
  });
}

void FabricExecutor::stop() { pool_.stop(); }

void FabricExecutor::sync(std::size_t shard) {
  const SimTime now = main_sim_.now();
  pool_.barrier(shard, now == 0 ? 0 : now - 1);
}

void FabricExecutor::barrier_all(SimTime t) { pool_.barrier_all(t); }

std::uint64_t FabricExecutor::blocked_pushes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->blocked_pushes();
  return total;
}

}  // namespace p4s::core
