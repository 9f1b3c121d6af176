// Realistic header-only frames shared by the frame-decoding tests: every
// L4 protocol and both QUIC header forms, IPv4 options at both ends of
// the IHL range, and header values exercising field extremes.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace p4s::test {

inline std::vector<std::uint8_t> serialized(const net::Packet& pkt) {
  std::vector<std::uint8_t> buf(net::kMaxHeaderBytes);
  buf.resize(net::serialize_headers(pkt, buf));
  return buf;
}

inline std::vector<std::vector<std::uint8_t>> frame_corpus() {
  std::vector<std::vector<std::uint8_t>> frames;
  frames.push_back(serialized(net::make_tcp_packet(
      net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201,
      0xFFFFFFFF, 0x80000000, net::tcpflags::kAck | net::tcpflags::kPsh,
      1448, 1 << 20)));
  frames.push_back(serialized(net::make_tcp_packet(
      net::ipv4(255, 255, 255, 255), net::ipv4(0, 0, 0, 1), 65535, 1, 0, 0,
      net::tcpflags::kSyn, 0, 0)));
  frames.push_back(serialized(net::make_udp_packet(
      net::ipv4(192, 168, 1, 1), net::ipv4(192, 168, 1, 2), 123, 123, 48)));
  frames.push_back(serialized(net::make_icmp_packet(
      net::ipv4(10, 0, 0, 1), net::ipv4(10, 0, 0, 2), 8, 7, 77, 56)));
  {
    net::QuicHeader q;
    q.spin = true;
    q.dcid = 0xFFFFFFFFFFFFFFFFULL;
    q.packet_number = 0xFFFFFFFF;
    frames.push_back(serialized(net::make_quic_packet(
        net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 40000, 4433, q,
        1200)));
    q.long_form = true;
    q.type = 3;
    q.version = 0xFFFFFFFF;
    q.scid = 0x0123456789ABCDEFULL;
    frames.push_back(serialized(net::make_quic_packet(
        net::ipv4(10, 1, 0, 10), net::ipv4(10, 0, 0, 10), 4433, 40000, q,
        0)));
  }
  {
    net::Packet opt = net::make_tcp_packet(
        net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 100,
        200, net::tcpflags::kAck, 512, 4096);
    opt.ip.ihl = 6;  // smallest options region
    opt.ip.total_len += 4;
    frames.push_back(serialized(opt));
    opt.ip.ihl = 15;  // largest legal IPv4 header
    opt.ip.total_len += 36;
    frames.push_back(serialized(opt));
  }
  return frames;
}

}  // namespace p4s::test
