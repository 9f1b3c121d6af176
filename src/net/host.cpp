#include "net/host.hpp"

namespace p4s::net {

void Host::send(Packet pkt) {
  pkt.ip.id = ip_id_++;
  ++sent_pkts_;
  if (uplink_ != nullptr) uplink_->enqueue(pkt);
}

void Host::bind(Protocol proto, std::uint16_t port, Handler handler) {
  handlers_[key(proto, port)] = std::move(handler);
}

void Host::unbind(Protocol proto, std::uint16_t port) {
  handlers_.erase(key(proto, port));
}

void Host::on_packet(const Packet& pkt) {
  ++received_pkts_;
  if (pkt.ip.dst != ip_) return;

  if (pkt.is_icmp()) {
    const IcmpHeader& icmp = pkt.icmp();
    if (icmp.type == 8) {  // echo request -> kernel auto-reply
      Packet reply = make_icmp_packet(ip_, pkt.ip.src, /*type=*/0,
                                      icmp.ident, icmp.seq,
                                      pkt.payload_bytes());
      send(std::move(reply));
      return;
    }
    // Echo replies are dispatched to the ident's handler below.
    if (auto it = handlers_.find(key(Protocol::kIcmp, icmp.ident));
        it != handlers_.end()) {
      it->second(pkt);
    }
    return;
  }

  std::uint16_t dst_port = 0;
  Protocol proto = static_cast<Protocol>(pkt.ip.protocol);
  if (pkt.is_tcp()) {
    dst_port = pkt.tcp().dst_port;
  } else if (pkt.is_udp()) {
    dst_port = pkt.udp().dst_port;
  }
  if (auto it = handlers_.find(key(proto, dst_port)); it != handlers_.end()) {
    it->second(pkt);
  }
}

std::uint16_t Host::allocate_port() {
  if (next_ephemeral_ == 0) next_ephemeral_ = 49152;  // wrapped
  return next_ephemeral_++;
}

}  // namespace p4s::net
