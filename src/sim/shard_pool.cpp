#include "sim/shard_pool.hpp"

#include <chrono>
#include <stdexcept>

#include "sim/random.hpp"

namespace p4s::sim {

std::size_t ShardPool::add_shard(Shard& shard) {
  if (started_) {
    throw std::logic_error("ShardPool: add_shard after start()");
  }
  shards_.push_back(std::make_unique<ShardState>(shard));
  return shards_.size() - 1;
}

void ShardPool::start() {
  if (started_) return;
  started_ = true;
  const std::size_t n = std::min(config_.workers, shards_.size());
  if (n == 0) return;  // zero workers: callers advance the shards
  for (std::size_t w = 0; w < n; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t w = i % n;
    shards_[i]->worker = w;
    workers_[w]->owned.push_back(i);
  }
  for (std::size_t w = 0; w < n; ++w) {
    workers_[w]->thread = std::thread([this, w]() { worker_main(w); });
  }
}

void ShardPool::stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_seq_cst);
  for (auto& w : workers_) {
    std::lock_guard<std::mutex> lock(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  workers_.clear();
  started_ = false;
  stop_.store(false, std::memory_order_relaxed);
}

void ShardPool::publish_grant(std::size_t shard, SimTime grant) {
  ShardState& s = *shards_[shard];
  if (s.grant.load(std::memory_order_relaxed) >= grant) return;
  s.grant.store(grant, std::memory_order_seq_cst);
  if (workers_.empty()) {
    // No worker thread runs: the caller advances the shard itself.
    pump_one(s);
    return;
  }
  wake_worker(s.worker);
}

void ShardPool::publish_grant_all(SimTime grant) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    publish_grant(i, grant);
  }
}

void ShardPool::barrier(std::size_t shard, SimTime grant) {
  publish_grant(shard, grant);
  if (workers_.empty()) return;  // advanced inline by publish_grant
  ShardState& s = *shards_[shard];
  // Fast path: the worker usually keeps up (it had the whole inter-read
  // window to drain); spin briefly before arming the blocking channel.
  for (int spin = 0; spin < 256; ++spin) {
    if (s.watermark.load(std::memory_order_acquire) >= grant) return;
    throw_if_failed();
    std::this_thread::yield();
  }
  barrier_waits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(main_mu_);
  main_waiting_.store(true, std::memory_order_seq_cst);
  wake_worker(s.worker);  // in case it parked between publish and here
  // The watermark load is seq_cst, pairing with pump_one's seq_cst
  // store: storing main_waiting_ then loading the watermark here, and
  // storing the watermark then loading main_waiting_ there, is a
  // store-buffering pattern in which weaker orders let both sides miss —
  // main would sleep with nobody left to wake it.
  main_cv_.wait(lock, [&]() {
    return failed_.load(std::memory_order_acquire) ||
           s.watermark.load(std::memory_order_seq_cst) >= grant;
  });
  main_waiting_.store(false, std::memory_order_seq_cst);
  lock.unlock();
  throw_if_failed();
}

void ShardPool::barrier_all(SimTime grant) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    barrier(i, grant);
  }
}

void ShardPool::throw_if_failed() const {
  if (!failed_.load(std::memory_order_acquire)) return;
  throw std::runtime_error("ShardPool: worker failed: " + failure_);
}

void ShardPool::record_failure(const char* what) {
  {
    std::lock_guard<std::mutex> lock(main_mu_);
    if (!failed_.load(std::memory_order_relaxed)) failure_ = what;
    failed_.store(true, std::memory_order_release);
    main_cv_.notify_all();
  }
}

void ShardPool::wake_worker(std::size_t worker_index) {
  Worker& w = *workers_[worker_index];
  if (!w.parked.load(std::memory_order_seq_cst)) return;
  std::lock_guard<std::mutex> lock(w.mu);
  w.cv.notify_all();
}

void ShardPool::notify_main() {
  if (!main_waiting_.load(std::memory_order_seq_cst)) return;
  std::lock_guard<std::mutex> lock(main_mu_);
  main_cv_.notify_all();
}

bool ShardPool::pump_one(ShardState& s) {
  const SimTime grant = s.grant.load(std::memory_order_seq_cst);
  if (s.watermark.load(std::memory_order_relaxed) >= grant) return false;
  s.shard->advance_to(grant);
  s.watermark.store(grant, std::memory_order_seq_cst);
  notify_main();
  return true;
}

void ShardPool::worker_main(std::size_t index) {
  Worker& me = *workers_[index];
  Rng jitter(config_.scheduling_jitter_seed + index * 0x9E3779B9u + 1);
  try {
    while (!stop_.load(std::memory_order_seq_cst)) {
      bool progress = false;
      for (const std::size_t id : me.owned) {
        progress = pump_one(*shards_[id]) || progress;
        if (config_.scheduling_jitter_seed != 0) {
          // Scheduling chaos for the determinism battery: stall at
          // random points so shard interleavings vary wildly across
          // runs while outputs must not.
          const double r = jitter.next_double();
          if (r < 0.25) {
            std::this_thread::yield();
          } else if (r < 0.30) {
            std::this_thread::sleep_for(std::chrono::microseconds(
                1 + static_cast<int>(jitter.next_double() * 200)));
          }
        }
      }
      if (progress) continue;
      std::unique_lock<std::mutex> lock(me.mu);
      me.parked.store(true, std::memory_order_seq_cst);
      // Re-check after raising the flag: a producer that published work
      // before reading `parked` is now guaranteed visible here.
      bool work = stop_.load(std::memory_order_seq_cst);
      for (const std::size_t id : me.owned) {
        const ShardState& s = *shards_[id];
        work = work || s.watermark.load(std::memory_order_relaxed) <
                           s.grant.load(std::memory_order_seq_cst);
      }
      if (!work) me.cv.wait(lock);
      me.parked.store(false, std::memory_order_seq_cst);
    }
  } catch (const std::exception& e) {
    me.parked.store(false, std::memory_order_seq_cst);
    record_failure(e.what());
  } catch (...) {
    me.parked.store(false, std::memory_order_seq_cst);
    record_failure("unknown exception");
  }
}

}  // namespace p4s::sim
