// Frame-decoding robustness: every truncated prefix and seeded single-bit
// and multi-byte corruptions of realistic frames go through the P4
// switch's programmable parser — the one decoder of header bytes, for TAP
// copies and foreign pcap files alike — which must never crash or read
// out of bounds (this suite runs under the ASan/UBSan CI job with several
// P4S_SEED values) and must keep its validity invariants.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "frame_corpus.hpp"
#include "mutate.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "p4/parser.hpp"

using namespace p4s;

namespace {

// Validity-bit invariants that must hold after any parse attempt.
void check_invariants(const p4::ParsedHeaders& hdr, bool accepted) {
  const int l4_count = int(hdr.tcp_valid) + int(hdr.udp_valid) +
                       int(hdr.icmp_valid);
  EXPECT_LE(l4_count, 1);
  if (hdr.ipv4_valid) {
    EXPECT_TRUE(hdr.ethernet_valid);
    EXPECT_EQ(hdr.ipv4.version, 4);
    EXPECT_GE(hdr.ipv4.ihl, 5);
  }
  if (l4_count > 0) {
    EXPECT_TRUE(hdr.ipv4_valid);
  }
  if (hdr.quic_valid) {
    EXPECT_TRUE(hdr.udp_valid);
  }
  if (accepted) {
    EXPECT_TRUE(hdr.ethernet_valid);
    if (hdr.ethernet.ethertype == net::kEtherTypeIpv4) {
      EXPECT_TRUE(hdr.ipv4_valid);
    }
  }
}

bool parse_checked(std::span<const std::uint8_t> bytes,
                   p4::PacketContext& ctx) {
  ctx.data = bytes;
  const bool accepted = p4::parse(ctx);
  check_invariants(ctx.hdr, accepted);
  return accepted;
}

bool parse_checked(std::span<const std::uint8_t> bytes) {
  p4::PacketContext ctx;
  return parse_checked(bytes, ctx);
}

TEST(FrameRobustness, FullFramesAreAccepted) {
  for (const auto& frame : test::frame_corpus()) {
    p4::PacketContext ctx;
    EXPECT_TRUE(parse_checked(frame, ctx));
    EXPECT_TRUE(ctx.hdr.ipv4_valid);
    EXPECT_TRUE(ctx.hdr.tcp_valid || ctx.hdr.udp_valid ||
                ctx.hdr.icmp_valid);
  }
}

TEST(FrameRobustness, OptionsFramesKeepChecksumOverFullIhl) {
  // IHL > 5 frames: the serializer's checksum covers the full IHL, and
  // the parser skips the options to read the TCP header at its offset.
  net::Packet opt = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 100,
      200, net::tcpflags::kAck, 512, 4096);
  opt.ip.ihl = 7;
  opt.ip.total_len += 8;
  auto wire = test::serialized(opt);
  const auto ip_header = [&wire] {
    return std::span<const std::uint8_t>(wire).subspan(
        net::kEthernetHeaderBytes, 28);
  };
  EXPECT_EQ(net::internet_checksum(ip_header()), 0);
  p4::PacketContext ctx;
  ASSERT_TRUE(parse_checked(wire, ctx));
  EXPECT_EQ(ctx.hdr.ipv4.ihl, 7);
  EXPECT_EQ(ctx.hdr.ipv4.header_bytes(), 28u);
  ASSERT_TRUE(ctx.hdr.tcp_valid);
  EXPECT_EQ(ctx.hdr.tcp.src_port, 5001);
  EXPECT_EQ(ctx.hdr.tcp.seq, 100u);
  // Corrupting one option byte breaks it.
  wire[net::kEthernetHeaderBytes + 21] ^= 0x01;
  EXPECT_NE(net::internet_checksum(ip_header()), 0);
}

TEST(FrameRobustness, EveryTruncatedPrefixIsHandled) {
  for (const auto& frame : test::frame_corpus()) {
    p4::PacketContext full;
    ASSERT_TRUE(parse_checked(frame, full));
    // Every header up to L4 is required; a cut QUIC header leaves plain
    // UDP (the payload is opaque, not a parse error).
    const std::size_t required =
        full.hdr.quic_valid ? net::kEthernetHeaderBytes +
                                  full.hdr.ipv4.header_bytes() +
                                  full.hdr.udp.header_bytes()
                            : frame.size();
    for (std::size_t len = 0; len < frame.size(); ++len) {
      p4::PacketContext ctx;
      const bool accepted = parse_checked({frame.data(), len}, ctx);
      EXPECT_EQ(accepted, len >= required) << "len " << len;
      EXPECT_FALSE(ctx.hdr.quic_valid) << "len " << len;
    }
  }
}

TEST(FrameRobustness, SeededBitFlipsNeverCrashTheParser) {
  const auto frames = test::frame_corpus();
  test::Mutator m;
  for (int iter = 0; iter < 4000; ++iter) {
    auto frame = frames[m.below(frames.size())];
    m.flip_bit(frame);
    parse_checked(frame);
  }
}

TEST(FrameRobustness, MultiByteCorruptionAndGarbage) {
  const auto frames = test::frame_corpus();
  test::Mutator m(1);
  for (int iter = 0; iter < 500; ++iter) {
    // Pure garbage of random length.
    std::vector<std::uint8_t> garbage(m.below(128));
    for (auto& b : garbage) b = m.byte();
    parse_checked(garbage);
    // A real frame with a random window overwritten.
    auto frame = frames[static_cast<std::size_t>(iter) % frames.size()];
    m.scramble_span(frame, 8);
    parse_checked(frame);
  }
}

}  // namespace
