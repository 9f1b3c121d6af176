#include "p4/parser.hpp"

namespace p4s::p4 {

namespace {

struct Cursor {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  bool have(std::size_t n) const { return pos + n <= data.size(); }
  std::uint8_t u8() { return data[pos++]; }
  std::uint16_t u16() {
    const std::uint16_t v =
        static_cast<std::uint16_t>(data[pos] << 8) | data[pos + 1];
    pos += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t v = (static_cast<std::uint32_t>(data[pos]) << 24) |
                            (static_cast<std::uint32_t>(data[pos + 1]) << 16) |
                            (static_cast<std::uint32_t>(data[pos + 2]) << 8) |
                            data[pos + 3];
    pos += 4;
    return v;
  }
  void skip(std::size_t n) { pos += n; }
};

// state parse_ethernet
bool parse_ethernet(Cursor& c, ParsedHeaders& hdr) {
  if (!c.have(14)) return false;
  for (auto& b : hdr.ethernet.dst_mac) b = c.u8();
  for (auto& b : hdr.ethernet.src_mac) b = c.u8();
  hdr.ethernet.ethertype = c.u16();
  hdr.ethernet_valid = true;
  return true;
}

// state parse_ipv4
bool parse_ipv4(Cursor& c, ParsedHeaders& hdr) {
  if (!c.have(20)) return false;
  const std::uint8_t ver_ihl = c.u8();
  hdr.ipv4.version = ver_ihl >> 4;
  hdr.ipv4.ihl = ver_ihl & 0x0F;
  if (hdr.ipv4.version != 4 || hdr.ipv4.ihl < 5) return false;
  hdr.ipv4.dscp = c.u8();
  hdr.ipv4.total_len = c.u16();
  hdr.ipv4.id = c.u16();
  c.skip(2);  // flags/frag
  hdr.ipv4.ttl = c.u8();
  hdr.ipv4.protocol = c.u8();
  c.skip(2);  // checksum (verified by the MAU in hardware, not the parser)
  hdr.ipv4.src = c.u32();
  hdr.ipv4.dst = c.u32();
  // Options, if any, are skipped (not extracted).
  const std::size_t options = (hdr.ipv4.ihl - 5u) * 4u;
  if (!c.have(options)) return false;
  c.skip(options);
  hdr.ipv4_valid = true;
  return true;
}

// state parse_tcp
bool parse_tcp(Cursor& c, ParsedHeaders& hdr) {
  if (!c.have(20)) return false;
  hdr.tcp.src_port = c.u16();
  hdr.tcp.dst_port = c.u16();
  hdr.tcp.seq = c.u32();
  hdr.tcp.ack = c.u32();
  hdr.tcp.data_offset = c.u8() >> 4;
  hdr.tcp.flags = c.u8();
  hdr.tcp.window = static_cast<std::uint32_t>(c.u16()) << net::kWindowShift;
  c.skip(4);  // checksum + urgent
  hdr.tcp_valid = true;
  return true;
}

// state parse_quic — entered from parse_udp when the first payload byte
// carries the QUIC fixed bit. Extraction mirrors the serializer's fixed
// shape (8-byte CIDs, 4-byte packet numbers); any mismatch falls back
// to plain UDP (the payload is opaque, not a parse error — a switch
// cannot reject traffic for not being QUIC).
void parse_quic(Cursor& c, ParsedHeaders& hdr) {
  std::uint64_t u64 = 0;
  if (!c.have(13)) return;
  const std::size_t start = c.pos;
  const std::uint8_t byte0 = c.u8();
  if ((byte0 & 0x40) == 0) {
    c.pos = start;
    return;
  }
  net::QuicHeader q;
  if ((byte0 & 0x80) != 0) {
    if (!c.have(26)) {
      c.pos = start;
      return;
    }
    q.long_form = true;
    q.type = (byte0 >> 4) & 0x03;
    q.version = c.u32();
    if (c.u8() != 8) {
      c.pos = start;
      return;
    }
    u64 = static_cast<std::uint64_t>(c.u32()) << 32;
    q.dcid = u64 | c.u32();
    if (c.u8() != 8) {
      c.pos = start;
      return;
    }
    u64 = static_cast<std::uint64_t>(c.u32()) << 32;
    q.scid = u64 | c.u32();
  } else {
    if ((byte0 & 0x03) != 0x03) {
      c.pos = start;
      return;
    }
    q.spin = (byte0 & 0x20) != 0;
    u64 = static_cast<std::uint64_t>(c.u32()) << 32;
    q.dcid = u64 | c.u32();
  }
  q.packet_number = c.u32();
  hdr.quic = q;
  hdr.quic_valid = true;
}

// state parse_udp
bool parse_udp(Cursor& c, ParsedHeaders& hdr) {
  if (!c.have(8)) return false;
  hdr.udp.src_port = c.u16();
  hdr.udp.dst_port = c.u16();
  hdr.udp.length = c.u16();
  c.skip(2);
  hdr.udp_valid = true;
  // select(first payload byte): QUIC or opaque payload.
  parse_quic(c, hdr);
  return true;
}

// state parse_icmp
bool parse_icmp(Cursor& c, ParsedHeaders& hdr) {
  if (!c.have(8)) return false;
  hdr.icmp.type = c.u8();
  hdr.icmp.code = c.u8();
  c.skip(2);
  hdr.icmp.ident = c.u16();
  hdr.icmp.seq = c.u16();
  hdr.icmp_valid = true;
  return true;
}

}  // namespace

bool parse(PacketContext& ctx) {
  Cursor c{ctx.data, 0};
  ctx.hdr = ParsedHeaders{};

  // start -> parse_ethernet
  if (!parse_ethernet(c, ctx.hdr)) return false;
  // select(hdr.ethernet.ethertype)
  if (ctx.hdr.ethernet.ethertype != net::kEtherTypeIpv4) {
    // Non-IPv4 frames accept with only Ethernet extracted (the telemetry
    // program ignores them).
    return true;
  }
  if (!parse_ipv4(c, ctx.hdr)) return false;
  // select(hdr.ipv4.protocol)
  switch (static_cast<net::Protocol>(ctx.hdr.ipv4.protocol)) {
    case net::Protocol::kTcp: return parse_tcp(c, ctx.hdr);
    case net::Protocol::kUdp: return parse_udp(c, ctx.hdr);
    case net::Protocol::kIcmp: return parse_icmp(c, ctx.hdr);
    default: return true;  // L4-unknown still accepts (IPv4-only view)
  }
}

}  // namespace p4s::p4
