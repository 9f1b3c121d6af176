#include "net/tap.hpp"

#include <cassert>

namespace p4s::net {

void MirrorSink::on_mirrored(const Packet& pkt, MirrorPoint point) {
  std::array<std::uint8_t, kMaxHeaderBytes> buf{};
  const std::size_t len = serialize_headers(pkt, buf);
  on_mirrored_bytes(std::span<const std::uint8_t>(buf.data(), len), point,
                    static_cast<std::uint32_t>(kEthernetHeaderBytes +
                                               pkt.ip.total_len));
}

void OpticalTapPair::attach(LegacySwitch& sw, OutputPort& monitored_port) {
  // Multicast hooks: several TAP pairs may observe the same switch/port
  // (one per monitored site in the fabric) without displacing each other.
  sw.add_ingress_hook(
      [this](const Packet& pkt) { mirror(pkt, MirrorPoint::kIngress); });
  monitored_port.add_egress_hook(
      [this](const Packet& pkt, SimTime /*queue_delay*/) {
        mirror(pkt, MirrorPoint::kEgress);
      });
}

void OpticalTapPair::mirror(const Packet& pkt, MirrorPoint point) {
  ++mirrored_pkts_;
  MirrorFrame frame;
  frame.at = sim_.now() + tap_latency_;
  frame.wire_len =
      static_cast<std::uint32_t>(kEthernetHeaderBytes + pkt.ip.total_len);
  frame.point = point;
  frame.len = serialize_shared(pkt, frame.bytes);
  if (boundary_ != nullptr) {
    // Parallel fabric: the copy crosses to a pipeline shard instead of
    // being scheduled on this timeline. Frames leave in mirror order at
    // a constant latency, so `at` is non-decreasing as BoundaryQueue
    // requires; nothing is scheduled here, which is what keeps the main
    // timeline's event order identical to the serial run.
    boundary_->push(frame);
    return;
  }
  ring_push() = frame;
  // The delay is the same for every copy, so deliveries pop in FIFO
  // order; the event captures only `this` (fits std::function's inline
  // storage — no per-copy closure allocation).
  sim_.after(tap_latency_, [this]() { deliver_front(); });
}

void OpticalTapPair::deliver_front() {
  assert(ring_count_ > 0);
  const MirrorFrame& front = ring_[ring_head_];
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_count_;
  // `front` stays valid during delivery: pushes from inside the sink go
  // to other slots (the ring only grows when full, and we just freed one).
  front.deliver_to(sink_);
}

std::uint8_t OpticalTapPair::serialize_shared(
    const Packet& pkt, std::array<std::uint8_t, kMaxHeaderBytes>& out) {
  if (pkt.uid == 0) {
    // No identity to share under (synthetic/test packets): serialize.
    return static_cast<std::uint8_t>(serialize_headers(pkt, out));
  }
  CacheEntry& entry = cache_[pkt.uid & (kCacheSlots - 1)];
  if (entry.uid == pkt.uid) {
    // Same packet seen at the other TAP. The core switch only ever
    // decremented the TTL in between; patch it instead of re-serializing.
    if (entry.ttl != pkt.ip.ttl) {
      patch_ttl(std::span<std::uint8_t>(entry.bytes.data(), entry.len),
                pkt.ip.ttl);
      entry.ttl = pkt.ip.ttl;
    }
    ++cache_hits_;
  } else {
    entry.uid = pkt.uid;
    entry.ttl = pkt.ip.ttl;
    entry.len = static_cast<std::uint8_t>(serialize_headers(pkt, entry.bytes));
  }
  std::copy_n(entry.bytes.data(), entry.len, out.data());
  return entry.len;
}

MirrorFrame& OpticalTapPair::ring_push() {
  if (ring_count_ == ring_.size()) ring_grow();
  MirrorFrame& slot = ring_[(ring_head_ + ring_count_) & (ring_.size() - 1)];
  ++ring_count_;
  return slot;
}

void OpticalTapPair::ring_grow() {
  std::vector<MirrorFrame> bigger(ring_.empty() ? 64 : ring_.size() * 2);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    bigger[i] = ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  ring_head_ = 0;
}

}  // namespace p4s::net
