#include "net/tap.hpp"

namespace p4s::net {

void MirrorSink::on_mirrored(const Packet& pkt, MirrorPoint point) {
  std::array<std::uint8_t, kMaxHeaderBytes> buf{};
  const std::size_t len = serialize_headers(pkt, buf);
  on_mirrored_bytes(std::span<const std::uint8_t>(buf.data(), len), point,
                    static_cast<std::uint32_t>(kEthernetHeaderBytes +
                                               pkt.ip.total_len));
}

void OpticalTapPair::attach(LegacySwitch& sw, OutputPort& monitored_port) {
  // Multicast hooks: pairs on different ports of one switch (and tests'
  // recorders) observe it without displacing each other.
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
  frame.len = static_cast<std::uint8_t>(serialize_headers(pkt, frame.bytes));
  // Frames leave in mirror order at a constant latency, so `at` is
  // non-decreasing as every boundary requires. Nothing is scheduled here:
  // the main timeline's event order never depends on the mirror path.
  for (MirrorBoundary* boundary : boundaries_) boundary->push(frame);
}

}  // namespace p4s::net
