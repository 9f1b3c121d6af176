#include "net/wire.hpp"

namespace p4s::net {

namespace {

void put_u8(std::span<std::uint8_t> out, std::size_t& pos, std::uint8_t v) {
  out[pos++] = v;
}
void put_u16(std::span<std::uint8_t> out, std::size_t& pos, std::uint16_t v) {
  out[pos++] = static_cast<std::uint8_t>(v >> 8);
  out[pos++] = static_cast<std::uint8_t>(v & 0xFF);
}
void put_u32(std::span<std::uint8_t> out, std::size_t& pos, std::uint32_t v) {
  out[pos++] = static_cast<std::uint8_t>(v >> 24);
  out[pos++] = static_cast<std::uint8_t>((v >> 16) & 0xFF);
  out[pos++] = static_cast<std::uint8_t>((v >> 8) & 0xFF);
  out[pos++] = static_cast<std::uint8_t>(v & 0xFF);
}

void put_u64(std::span<std::uint8_t> out, std::size_t& pos, std::uint64_t v) {
  put_u32(out, pos, static_cast<std::uint32_t>(v >> 32));
  put_u32(out, pos, static_cast<std::uint32_t>(v));
}

// QUIC first-byte bits (RFC 9000 §17): form, fixed, spin, and the
// packet-number-length code (always 3 here — 4-byte packet numbers).
constexpr std::uint8_t kQuicFormBit = 0x80;
constexpr std::uint8_t kQuicFixedBit = 0x40;
constexpr std::uint8_t kQuicSpinBit = 0x20;
constexpr std::uint8_t kQuicPnLen4 = 0x03;
constexpr std::uint8_t kQuicCidLen = 8;

}  // namespace

std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < bytes.size(); i += 2) {
    sum += (static_cast<std::uint32_t>(bytes[i]) << 8) | bytes[i + 1];
  }
  if (i < bytes.size()) {
    sum += static_cast<std::uint32_t>(bytes[i]) << 8;
  }
  while (sum >> 16) {
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

void mac_for(Ipv4Address addr, std::span<std::uint8_t> out) {
  out[0] = 0x02;  // locally administered, unicast
  out[1] = 0x00;
  out[2] = static_cast<std::uint8_t>(addr >> 24);
  out[3] = static_cast<std::uint8_t>(addr >> 16);
  out[4] = static_cast<std::uint8_t>(addr >> 8);
  out[5] = static_cast<std::uint8_t>(addr);
}

std::size_t serialize_headers(const Packet& pkt,
                              std::span<std::uint8_t> out) {
  std::size_t pos = 0;
  // Ethernet II: dst MAC, src MAC, EtherType.
  mac_for(pkt.ip.dst, out.subspan(pos, 6));
  pos += 6;
  mac_for(pkt.ip.src, out.subspan(pos, 6));
  pos += 6;
  put_u16(out, pos, kEtherTypeIpv4);
  const std::size_t ip_start = pos;
  const Ipv4Header& ip = pkt.ip;
  put_u8(out, pos, static_cast<std::uint8_t>((ip.version << 4) | ip.ihl));
  put_u8(out, pos, ip.dscp);
  put_u16(out, pos, ip.total_len);
  put_u16(out, pos, ip.id);
  put_u16(out, pos, 0);  // flags + fragment offset: never fragmented here
  put_u8(out, pos, ip.ttl);
  put_u8(out, pos, ip.protocol);
  const std::size_t checksum_pos = pos;
  put_u16(out, pos, 0);  // checksum placeholder
  put_u32(out, pos, ip.src);
  put_u32(out, pos, ip.dst);
  // Options region (IHL > 5): option *contents* are not modelled, so pad
  // with End-of-Option-List zeros. Written before the checksum, which
  // covers the full IHL.
  for (std::size_t i = 20; i < ip.header_bytes(); ++i) put_u8(out, pos, 0);
  const std::uint16_t csum =
      internet_checksum(out.subspan(ip_start, ip.header_bytes()));
  out[checksum_pos] = static_cast<std::uint8_t>(csum >> 8);
  out[checksum_pos + 1] = static_cast<std::uint8_t>(csum & 0xFF);

  if (pkt.is_tcp()) {
    const TcpHeader& t = pkt.tcp();
    put_u16(out, pos, t.src_port);
    put_u16(out, pos, t.dst_port);
    put_u32(out, pos, t.seq);
    put_u32(out, pos, t.ack);
    put_u8(out, pos, static_cast<std::uint8_t>(t.data_offset << 4));
    put_u8(out, pos, t.flags);
    put_u16(out, pos, static_cast<std::uint16_t>(t.window >> kWindowShift));
    put_u16(out, pos, 0);  // TCP checksum not modelled (payload is virtual)
    put_u16(out, pos, 0);  // urgent pointer
  } else if (pkt.is_udp()) {
    const UdpHeader& u = pkt.udp();
    put_u16(out, pos, u.src_port);
    put_u16(out, pos, u.dst_port);
    put_u16(out, pos, u.length);
    put_u16(out, pos, 0);  // UDP checksum optional in IPv4
    if (pkt.has_quic) {
      // The QUIC header is the only observable slice of the UDP
      // payload; the encrypted frames behind it stay virtual.
      const QuicHeader& q = pkt.quic;
      if (q.long_form) {
        put_u8(out, pos,
               static_cast<std::uint8_t>(kQuicFormBit | kQuicFixedBit |
                                         ((q.type & 0x03) << 4) |
                                         kQuicPnLen4));
        put_u32(out, pos, q.version);
        put_u8(out, pos, kQuicCidLen);
        put_u64(out, pos, q.dcid);
        put_u8(out, pos, kQuicCidLen);
        put_u64(out, pos, q.scid);
      } else {
        put_u8(out, pos,
               static_cast<std::uint8_t>(kQuicFixedBit |
                                         (q.spin ? kQuicSpinBit : 0) |
                                         kQuicPnLen4));
        put_u64(out, pos, q.dcid);
      }
      put_u32(out, pos, q.packet_number);
    }
  } else {
    const IcmpHeader& ic = pkt.icmp();
    put_u8(out, pos, ic.type);
    put_u8(out, pos, ic.code);
    put_u16(out, pos, 0);  // ICMP checksum not modelled
    put_u16(out, pos, ic.ident);
    put_u16(out, pos, ic.seq);
  }
  return pos;
}

}  // namespace p4s::net
