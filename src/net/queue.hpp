// Drop-tail FIFO queue sized in bytes, as found on the legacy core switch
// the paper monitors. Records per-packet enqueue timestamps so the egress
// side can compute the queuing delay the TAP pair observes.
#pragma once

#include <cstdint>
#include <optional>

#include "net/packet.hpp"
#include "util/chunked_fifo.hpp"
#include "util/units.hpp"

namespace p4s::net {

class DropTailQueue {
 public:
  explicit DropTailQueue(std::uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  struct Entry {
    Packet pkt;
    SimTime enqueued_at;
  };

  struct Stats {
    std::uint64_t enqueued_pkts = 0;
    std::uint64_t dequeued_pkts = 0;
    std::uint64_t dropped_pkts = 0;
    std::uint64_t enqueued_bytes = 0;
    std::uint64_t dropped_bytes = 0;
    std::uint64_t peak_bytes = 0;
  };

  /// Attempt to enqueue; drops (returns false) if the packet would push
  /// occupancy past capacity. Accounting uses wire bytes, matching how a
  /// real switch buffer fills.
  bool try_enqueue(const Packet& pkt, SimTime now);

  std::optional<Entry> dequeue();

  bool empty() const { return entries_.empty(); }
  std::uint64_t occupancy_bytes() const { return occupancy_bytes_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t depth_pkts() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

  /// Occupancy as a fraction of capacity in [0, 1].
  double fill_fraction() const {
    if (capacity_bytes_ == 0) return 0.0;
    return static_cast<double>(occupancy_bytes_) /
           static_cast<double>(capacity_bytes_);
  }

 private:
  std::uint64_t capacity_bytes_;
  std::uint64_t occupancy_bytes_ = 0;
  util::ChunkedFifo<Entry> entries_;
  Stats stats_;
};

}  // namespace p4s::net
