// Unit tests: packet model and header serializer (byte layout, IPv4
// checksum), with frames read back through the P4 parser, the one
// decoder of header bytes.
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <span>

#include "net/packet.hpp"
#include "net/wire.hpp"
#include "p4/parser.hpp"

namespace p4s::net {
namespace {

TEST(Address, DottedQuadFormatting) {
  EXPECT_EQ(to_string(ipv4(10, 0, 0, 10)), "10.0.0.10");
  EXPECT_EQ(to_string(ipv4(255, 255, 255, 255)), "255.255.255.255");
  EXPECT_EQ(to_string(0), "0.0.0.0");
}

TEST(Address, OctetPacking) {
  EXPECT_EQ(ipv4(1, 2, 3, 4), 0x01020304u);
}

TEST(FiveTuple, ReversedSwapsEndpoints) {
  FiveTuple t{ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 100, 200, 6};
  const FiveTuple r = t.reversed();
  EXPECT_EQ(r.src_ip, t.dst_ip);
  EXPECT_EQ(r.dst_ip, t.src_ip);
  EXPECT_EQ(r.src_port, t.dst_port);
  EXPECT_EQ(r.dst_port, t.src_port);
  EXPECT_EQ(r.protocol, t.protocol);
  EXPECT_EQ(r.reversed(), t);
}

TEST(FiveTuple, EqualityAndToString) {
  FiveTuple a{ipv4(1, 0, 0, 1), ipv4(1, 0, 0, 2), 5, 6, 6};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  b.src_port = 7;
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_string(), "1.0.0.1:5->1.0.0.2:6/6");
}

TEST(Packet, TcpBuilderComputesLengths) {
  const Packet p = make_tcp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 10,
                                   20, 1000, 2000, tcpflags::kAck, 1460,
                                   65535);
  EXPECT_TRUE(p.is_tcp());
  EXPECT_EQ(p.ip.total_len, 20 + 20 + 1460);
  EXPECT_EQ(p.payload_bytes(), 1460u);
  EXPECT_EQ(p.wire_bytes(), p.ip.total_len + Packet::kL2Overhead);
  EXPECT_EQ(p.tcp().seq, 1000u);
  EXPECT_TRUE(p.tcp().has(tcpflags::kAck));
  EXPECT_FALSE(p.tcp().has(tcpflags::kSyn));
}

TEST(Packet, UdpBuilderComputesLengths) {
  const Packet p =
      make_udp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 53, 5353, 512);
  EXPECT_TRUE(p.is_udp());
  EXPECT_EQ(p.ip.total_len, 20 + 8 + 512);
  EXPECT_EQ(p.payload_bytes(), 512u);
  EXPECT_EQ(p.udp().length, 8 + 512);
}

TEST(Packet, IcmpBuilderComputesLengths) {
  const Packet p =
      make_icmp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 8, 77, 3, 56);
  EXPECT_TRUE(p.is_icmp());
  EXPECT_EQ(p.ip.total_len, 20 + 8 + 56);
  EXPECT_EQ(p.icmp().ident, 77);
  EXPECT_EQ(p.icmp().seq, 3);
}

TEST(Packet, FiveTupleFromHeaders) {
  const Packet p = make_tcp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 10,
                                   20, 0, 0, 0, 100, 0);
  const FiveTuple t = p.five_tuple();
  EXPECT_EQ(t.src_port, 10);
  EXPECT_EQ(t.dst_port, 20);
  EXPECT_EQ(t.protocol, 6);
}

TEST(Packet, IcmpFiveTupleUsesIdent) {
  const Packet p =
      make_icmp_packet(ipv4(1, 1, 1, 1), ipv4(2, 2, 2, 2), 8, 42, 0, 0);
  EXPECT_EQ(p.five_tuple().src_port, 42);
  EXPECT_EQ(p.five_tuple().dst_port, 42);
}

// ---------- Wire codec ----------

std::array<std::uint8_t, kMaxHeaderBytes> serialize(const Packet& p,
                                                    std::size_t& len) {
  std::array<std::uint8_t, kMaxHeaderBytes> buf{};
  len = serialize_headers(p, buf);
  return buf;
}

// The parser's view of a frame, or nullopt when it rejects the bytes.
std::optional<p4::ParsedHeaders> decode(std::span<const std::uint8_t> bytes) {
  p4::PacketContext ctx;
  ctx.data = bytes;
  if (!p4::parse(ctx)) return std::nullopt;
  return ctx.hdr;
}

// RFC 1071: the ones'-complement sum over a header including its
// checksum field is zero.
bool ipv4_checksum_ok(std::span<const std::uint8_t> frame) {
  const std::size_t ihl_bytes = (frame[kEthernetHeaderBytes] & 0x0F) * 4u;
  return internet_checksum(frame.subspan(kEthernetHeaderBytes, ihl_bytes)) ==
         0;
}

TEST(Wire, TcpRoundTrip) {
  Packet p = make_tcp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 40000,
                             5201, 0xDEADBEEF, 0x12345678,
                             tcpflags::kAck | tcpflags::kPsh, 1460,
                             2u << 20);
  p.ip.id = 7777;
  p.ip.ttl = 17;
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  EXPECT_EQ(len, 54u);  // 14 Ethernet + 20 IP + 20 TCP
  EXPECT_TRUE(ipv4_checksum_ok({buf.data(), len}));
  const auto parsed = decode({buf.data(), len});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->ipv4.src, p.ip.src);
  EXPECT_EQ(parsed->ipv4.dst, p.ip.dst);
  EXPECT_EQ(parsed->ipv4.id, 7777);
  EXPECT_EQ(parsed->ipv4.ttl, 17);
  EXPECT_EQ(parsed->ipv4.total_len, p.ip.total_len);
  ASSERT_TRUE(parsed->tcp_valid);
  EXPECT_EQ(parsed->tcp.seq, 0xDEADBEEF);
  EXPECT_EQ(parsed->tcp.ack, 0x12345678);
  EXPECT_EQ(parsed->tcp.flags, p.tcp().flags);
  EXPECT_EQ(parsed->tcp.src_port, 40000);
  EXPECT_EQ(parsed->tcp.dst_port, 5201);
}

TEST(Wire, WindowScalingQuantization) {
  // The serializer carries window >> kWindowShift in 16 bits; values
  // round down to the scale granule.
  Packet p = make_tcp_packet(1, 2, 3, 4, 0, 0, tcpflags::kAck, 0,
                             (3u << kWindowShift) + 5);
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  const auto parsed = decode({buf.data(), len});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tcp.window, 3u << kWindowShift);
}

TEST(Wire, UdpRoundTrip) {
  const Packet p =
      make_udp_packet(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 111, 222, 99);
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  EXPECT_EQ(len, 42u);  // 14 Ethernet + 20 IP + 8 UDP
  EXPECT_TRUE(ipv4_checksum_ok({buf.data(), len}));
  const auto parsed = decode({buf.data(), len});
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->udp_valid);
  EXPECT_FALSE(parsed->quic_valid);
  EXPECT_EQ(parsed->udp.src_port, 111);
  EXPECT_EQ(parsed->udp.dst_port, 222);
  EXPECT_EQ(parsed->udp.length, 8 + 99);
}

TEST(Wire, IcmpRoundTrip) {
  const Packet p =
      make_icmp_packet(ipv4(9, 9, 9, 9), ipv4(8, 8, 8, 8), 0, 321, 12, 56);
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  EXPECT_TRUE(ipv4_checksum_ok({buf.data(), len}));
  const auto parsed = decode({buf.data(), len});
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->icmp_valid);
  EXPECT_EQ(parsed->icmp.type, 0);
  EXPECT_EQ(parsed->icmp.ident, 321);
  EXPECT_EQ(parsed->icmp.seq, 12);
}

TEST(Wire, ChecksumValidatesAndRejectsCorruption) {
  const Packet p = make_tcp_packet(1, 2, 3, 4, 0, 0, 0, 10, 0);
  std::size_t len = 0;
  auto buf = serialize(p, len);
  EXPECT_EQ(internet_checksum({buf.data() + kEthernetHeaderBytes, 20}), 0);
  buf[kEthernetHeaderBytes + 16] ^= 0xFF;  // flip a source-address byte
  EXPECT_FALSE(ipv4_checksum_ok({buf.data(), len}));
}

TEST(Wire, RejectsTruncation) {
  const Packet p = make_tcp_packet(1, 2, 3, 4, 0, 0, 0, 10, 0);
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  for (std::size_t cut : {std::size_t{0}, std::size_t{10}, std::size_t{20},
                          std::size_t{33}, std::size_t{39},
                          std::size_t{53}}) {
    EXPECT_FALSE(decode({buf.data(), cut}).has_value()) << "cut=" << cut;
  }
  EXPECT_TRUE(decode({buf.data(), 54}).has_value());
}

TEST(Wire, RejectsNonIpv4) {
  const Packet p = make_udp_packet(1, 2, 3, 4, 0);
  std::size_t len = 0;
  auto buf = serialize(p, len);
  buf[kEthernetHeaderBytes] = 0x65;  // version 6
  EXPECT_FALSE(decode({buf.data(), len}).has_value());
}

TEST(Wire, EthernetMacsDeriveFromAddresses) {
  const Packet p = make_udp_packet(ipv4(1, 2, 3, 4), ipv4(5, 6, 7, 8), 9,
                                   10, 0);
  std::size_t len = 0;
  const auto buf = serialize(p, len);
  // dst MAC = 02:00:05:06:07:08, src MAC = 02:00:01:02:03:04.
  EXPECT_EQ(buf[0], 0x02);
  EXPECT_EQ(buf[2], 5);
  EXPECT_EQ(buf[5], 8);
  EXPECT_EQ(buf[6], 0x02);
  EXPECT_EQ(buf[8], 1);
  EXPECT_EQ(buf[11], 4);
}

TEST(Wire, ChecksumKnownProperties) {
  const std::uint8_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(internet_checksum(zeros), 0xFFFF);
  const std::uint8_t ones[2] = {0xFF, 0xFF};
  EXPECT_EQ(internet_checksum(ones), 0x0000);
  const std::uint8_t odd[3] = {0x12, 0x34, 0x56};
  // 0x1234 + 0x5600 = 0x6834 -> ~ = 0x97CB.
  EXPECT_EQ(internet_checksum(odd), 0x97CB);
}

}  // namespace
}  // namespace p4s::net
