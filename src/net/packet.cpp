#include "net/packet.hpp"

#include <cassert>
#include <cstdio>

namespace p4s::net {

std::string to_string(Ipv4Address addr) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (addr >> 24) & 0xFF,
                (addr >> 16) & 0xFF, (addr >> 8) & 0xFF, addr & 0xFF);
  return buf;
}

std::string FiveTuple::to_string() const {
  return net::to_string(src_ip) + ":" + std::to_string(src_port) + "->" +
         net::to_string(dst_ip) + ":" + std::to_string(dst_port) + "/" +
         std::to_string(protocol);
}

std::uint32_t Packet::l4_header_bytes() const {
  return std::visit([](const auto& h) { return h.header_bytes(); }, l4);
}

std::uint32_t Packet::payload_bytes() const {
  const std::uint32_t hdrs = ip.header_bytes() + l4_header_bytes();
  assert(ip.total_len >= hdrs);
  return ip.total_len - hdrs;
}

FiveTuple Packet::five_tuple() const {
  FiveTuple t;
  t.src_ip = ip.src;
  t.dst_ip = ip.dst;
  t.protocol = ip.protocol;
  if (is_tcp()) {
    t.src_port = tcp().src_port;
    t.dst_port = tcp().dst_port;
  } else if (is_udp()) {
    t.src_port = udp().src_port;
    t.dst_port = udp().dst_port;
  } else if (is_icmp()) {
    // ICMP has no ports; the ident field disambiguates echo sessions.
    t.src_port = icmp().ident;
    t.dst_port = icmp().ident;
  }
  return t;
}

Packet make_tcp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t seq, std::uint32_t ack,
                       std::uint8_t flags, std::uint32_t payload,
                       std::uint32_t window) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.protocol = static_cast<std::uint8_t>(Protocol::kTcp);
  TcpHeader tcp;
  tcp.src_port = src_port;
  tcp.dst_port = dst_port;
  tcp.seq = seq;
  tcp.ack = ack;
  tcp.flags = flags;
  tcp.window = window;
  p.l4 = tcp;
  p.ip.total_len =
      static_cast<std::uint16_t>(p.ip.header_bytes() + tcp.header_bytes() +
                                 payload);
  return p;
}

Packet make_udp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.protocol = static_cast<std::uint8_t>(Protocol::kUdp);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(udp.header_bytes() + payload);
  p.l4 = udp;
  p.ip.total_len = static_cast<std::uint16_t>(p.ip.header_bytes() +
                                              udp.length);
  return p;
}

Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, std::uint8_t type,
                        std::uint16_t ident, std::uint16_t seq,
                        std::uint32_t payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.protocol = static_cast<std::uint8_t>(Protocol::kIcmp);
  IcmpHeader icmp;
  icmp.type = type;
  icmp.ident = ident;
  icmp.seq = seq;
  p.l4 = icmp;
  p.ip.total_len = static_cast<std::uint16_t>(
      p.ip.header_bytes() + icmp.header_bytes() + payload);
  return p;
}

Packet make_quic_packet(Ipv4Address src, Ipv4Address dst,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        const QuicHeader& hdr, std::uint32_t payload) {
  Packet p;
  p.ip.src = src;
  p.ip.dst = dst;
  p.ip.protocol = static_cast<std::uint8_t>(Protocol::kUdp);
  UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  udp.length = static_cast<std::uint16_t>(udp.header_bytes() +
                                          hdr.header_bytes() + payload);
  p.l4 = udp;
  p.ip.total_len =
      static_cast<std::uint16_t>(p.ip.header_bytes() + udp.length);
  p.quic = hdr;
  p.has_quic = true;
  return p;
}

}  // namespace p4s::net
