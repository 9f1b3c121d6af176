#include "net/switch.hpp"

namespace p4s::net {

std::size_t LegacySwitch::add_port(OutputPort& port) {
  ports_.push_back(&port);
  return ports_.size() - 1;
}

void LegacySwitch::route(Ipv4Address dst, std::size_t port_index) {
  fib_[dst] = port_index;
}

void LegacySwitch::set_default_route(std::size_t port_index) {
  default_port_ = port_index;
}

void LegacySwitch::unroute(Ipv4Address dst) { fib_.erase(dst); }

void LegacySwitch::on_packet(const Packet& pkt) {
  for (const auto& hook : ingress_hooks_) hook(pkt);

  Packet fwd = pkt;
  if (fwd.ip.ttl <= 1) {
    // TTL expires in transit (RFC 1812): notify the sender if we have a
    // router address to speak from.
    ++ttl_expired_pkts_;
    if (address_ != 0) send_time_exceeded(pkt);
    return;
  }
  --fwd.ip.ttl;

  std::size_t out = default_port_;
  if (auto it = fib_.find(fwd.ip.dst); it != fib_.end()) out = it->second;
  if (out == kNoPort || out >= ports_.size()) {
    ++unroutable_pkts_;
    return;
  }
  ++forwarded_pkts_;
  ports_[out]->enqueue(fwd);
}

void LegacySwitch::send_time_exceeded(const Packet& original) {
  if (original.is_icmp() && original.icmp().type == 11) {
    return;  // never generate ICMP errors about ICMP errors
  }
  // The reply carries the original probe's identity (ident/seq for ICMP
  // probes, the IP id otherwise) so the tracerouting host can correlate;
  // the real encoding embeds the original header in the payload, which
  // amounts to the same information.
  std::uint16_t ident = original.ip.id;
  std::uint16_t seq = 0;
  if (original.is_icmp()) {
    ident = original.icmp().ident;
    seq = original.icmp().seq;
  } else if (original.is_udp()) {
    ident = original.udp().src_port;
  } else if (original.is_tcp()) {
    ident = original.tcp().src_port;
  }
  Packet reply = make_icmp_packet(address_, original.ip.src,
                                  /*type=*/11, ident, seq,
                                  /*payload=*/28);
  reply.icmp().code = 0;  // TTL exceeded in transit

  // Route the error through our own FIB.
  std::size_t out = default_port_;
  if (auto it = fib_.find(reply.ip.dst); it != fib_.end()) out = it->second;
  if (out == kNoPort || out >= ports_.size()) return;
  ports_[out]->enqueue(reply);
}

}  // namespace p4s::net
