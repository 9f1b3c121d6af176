#include "core/fabric_executor.hpp"

#include <deque>
#include <stdexcept>

namespace p4s::core {

// One monitored switch's pipeline shard: the consumer end of the TAP
// boundary and the ShardPool execution hook. push() runs on the main
// thread, advance_to() on the shard's worker (on the main thread when
// there is none); the SPSC inbox and the pool's grant/watermark
// protocol are the only points of contact.
class FabricExecutor::SwitchShard : public sim::ShardPool::Shard,
                                    public net::MirrorBoundary {
 public:
  SwitchShard(FabricExecutor& fabric, sim::Simulation& pipeline_sim,
              net::MirrorSink& entry)
      : fabric_(fabric), pipeline_sim_(pipeline_sim), entry_(entry) {}

  void bind(std::size_t id) { id_ = id; }

  // ---- main thread ----------------------------------------------------
  void push(const net::MirrorFrame& frame) override {
    if (overflow_.empty() && inbox_.try_push(frame)) return;
    // Inbox full (or frames already wait outside it): queue the copy
    // here, in order, and grant what the main clock allows — a grant
    // past main_now - 1 could let the shard deliver copies a driver
    // read at main_now must not see yet.
    ++blocked_pushes_;
    overflow_.push_back(frame);
    const SimTime now = fabric_.main_sim_.now();
    grant(now == 0 ? 0 : now - 1, /*wait=*/false);
  }

  // Hand the shard every copy due at or before `limit` and grant it
  // `limit`; with `wait`, return only once the shard has delivered them.
  void grant(SimTime limit, bool wait) {
    hand_over(limit);
    if (wait) {
      fabric_.pool_.barrier(id_, limit);
    } else {
      fabric_.pool_.publish_grant(id_, limit);
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
  // Move overflow into the inbox until every copy due at or before
  // `limit` is in it. Where the inbox is full, the shard is first run
  // up to just before the oldest waiting copy — a grant no copy still
  // outside the inbox can fall under — which frees the inbox unless it
  // holds only copies due in that same nanosecond.
  void hand_over(SimTime limit) {
    for (;;) {
      while (!overflow_.empty() && inbox_.try_push(overflow_.front())) {
        overflow_.pop_front();
      }
      if (overflow_.empty() || overflow_.front().at > limit) return;
      const SimTime due = overflow_.front().at;
      if (due > 0) fabric_.pool_.barrier(id_, due - 1);
      if (inbox_.size_approx() == inbox_.capacity()) {
        throw std::logic_error(
            "FabricExecutor: a full inbox of copies due in one nanosecond");
      }
    }
  }

  FabricExecutor& fabric_;
  sim::Simulation& pipeline_sim_;
  net::MirrorSink& entry_;
  sim::BoundaryQueue<net::MirrorFrame> inbox_{kInboxFrames};
  // Copies that found the inbox full, oldest first (main-thread owned).
  std::deque<net::MirrorFrame> overflow_;
  std::size_t id_ = 0;
  std::uint64_t blocked_pushes_ = 0;  // main-thread owned
};

FabricExecutor::FabricExecutor(sim::Simulation& main_sim, Config config)
    : main_sim_(main_sim),
      pool_(sim::ShardPool::Config{config.workers,
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

net::OpticalTapPair& FabricExecutor::tap_pair(net::LegacySwitch& sw,
                                              net::OutputPort& port,
                                              SimTime tap_latency) {
  auto& pair = tap_pairs_[{&sw, &port, tap_latency}];
  if (pair == nullptr) {
    pair = std::make_unique<net::OpticalTapPair>(main_sim_, tap_latency);
    pair->attach(sw, port);
  }
  return *pair;
}

void FabricExecutor::start() {
  if (started_) return;
  started_ = true;
  pool_.start();
  // Grant pump: keep the shards trailing the main clock — with workers,
  // so pipelines overlap with topology/TCP execution between driver
  // reads; without, so the inbox holds about one period of copies.
  main_sim_.every(kGrantPeriod, kGrantPeriod, [this]() {
    const SimTime now = main_sim_.now();
    for (auto& shard : shards_) {
      shard->grant(now == 0 ? 0 : now - 1, /*wait=*/false);
    }
    return true;
  });
}

void FabricExecutor::stop() { pool_.stop(); }

void FabricExecutor::sync(std::size_t shard) {
  const SimTime now = main_sim_.now();
  shards_.at(shard)->grant(now == 0 ? 0 : now - 1, /*wait=*/true);
}

void FabricExecutor::barrier_all(SimTime t) {
  for (auto& shard : shards_) shard->grant(t, /*wait=*/true);
}

std::uint64_t FabricExecutor::blocked_pushes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->blocked_pushes();
  return total;
}

}  // namespace p4s::core
