#include "net/queue.hpp"

#include <algorithm>

namespace p4s::net {

bool DropTailQueue::try_enqueue(const Packet& pkt, SimTime now) {
  const std::uint64_t bytes = pkt.wire_bytes();
  if (occupancy_bytes_ + bytes > capacity_bytes_) {
    ++stats_.dropped_pkts;
    stats_.dropped_bytes += bytes;
    return false;
  }
  occupancy_bytes_ += bytes;
  stats_.peak_bytes = std::max(stats_.peak_bytes, occupancy_bytes_);
  ++stats_.enqueued_pkts;
  stats_.enqueued_bytes += bytes;
  entries_.push(Entry{pkt, now});
  return true;
}

std::optional<DropTailQueue::Entry> DropTailQueue::dequeue() {
  if (entries_.empty()) return std::nullopt;
  Entry e = std::move(entries_.front());
  entries_.pop();
  occupancy_bytes_ -= e.pkt.wire_bytes();
  ++stats_.dequeued_pkts;
  return e;
}

}  // namespace p4s::net
