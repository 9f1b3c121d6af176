// Unit tests: P4 target emulation — stateful registers, CRC hash
// engines, count-min sketch, programmable parser, digest queue and the
// switch target itself.
#include <gtest/gtest.h>

#include <array>

#include "net/wire.hpp"
#include "p4/cms.hpp"
#include "p4/hash.hpp"
#include "p4/p4_switch.hpp"
#include "p4/parser.hpp"
#include "p4/pipeline.hpp"
#include "p4/register.hpp"

namespace p4s::p4 {
namespace {

// ---------- RegisterArray ----------

TEST(RegisterArray, InitializesAndReadsBack) {
  RegisterArray<std::uint32_t> reg(16, 7);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(reg.read(i), 7u);
  reg.write(3, 99);
  EXPECT_EQ(reg.read(3), 99u);
}

TEST(RegisterArray, ExecuteIsReadModifyWrite) {
  RegisterArray<std::uint64_t> reg(4, 0);
  const auto result =
      reg.execute(1, [](std::uint64_t& v) { return v += 10; });
  EXPECT_EQ(result, 10u);
  EXPECT_EQ(reg.cp_read(1), 10u);
}

TEST(RegisterArray, ControlPlaneBulkReadAndClear) {
  RegisterArray<int> reg(4, 5);
  reg.write(2, 9);
  const auto all = reg.cp_read_all();
  EXPECT_EQ(all, (std::vector<int>{5, 5, 9, 5}));
  reg.cp_clear();
  EXPECT_EQ(reg.cp_read(2), 5);
}

TEST(RegisterArray, AccessCountersSeparateDataAndControl) {
  RegisterArray<int> reg(4, 0);
  reg.read(0);
  reg.write(0, 1);
  reg.execute(0, [](int& v) { return v; });
  reg.cp_read(0);
  reg.cp_write(0, 2);
  EXPECT_EQ(reg.data_plane_reads(), 1u);
  EXPECT_EQ(reg.data_plane_writes(), 1u);
  EXPECT_EQ(reg.data_plane_rmws(), 1u);
  EXPECT_EQ(reg.control_plane_reads(), 1u);
  EXPECT_EQ(reg.control_plane_writes(), 1u);
}

// ---------- CRC hashes ----------

TEST(Crc, Crc32KnownVector) {
  // CRC-32 (reflected, 0xEDB88320) of "123456789" is 0xCBF43926.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32{}(data), 0xCBF43926u);
}

TEST(Crc, Crc16KnownVector) {
  // CRC-16/ARC of "123456789" is 0xBB3D.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc16{}(data), 0xBB3D);
}

TEST(Crc, SeedsProduceIndependentStreams) {
  const std::uint8_t data[] = {1, 2, 3, 4};
  EXPECT_NE(Crc32{0}(data), Crc32{1}(data));
  EXPECT_NE(Crc32{1}(data), Crc32{2}(data));
}

TEST(Crc, EmptyInput) {
  EXPECT_EQ(Crc32{}(std::span<const std::uint8_t>{}), 0u);
}

TEST(Hash, FlowHashDeterministicAndDirectional) {
  const net::FiveTuple t{net::ipv4(10, 0, 0, 1), net::ipv4(10, 0, 0, 2),
                         100, 200, 6};
  EXPECT_EQ(flow_hash(t), flow_hash(t));
  EXPECT_NE(flow_hash(t), flow_hash(t.reversed()));
}

TEST(Hash, FiveTupleKeyLayout) {
  const net::FiveTuple t{0x01020304, 0x05060708, 0x0A0B, 0x0C0D, 17};
  const auto key = five_tuple_key(t);
  EXPECT_EQ(key[0], 0x01);
  EXPECT_EQ(key[3], 0x04);
  EXPECT_EQ(key[4], 0x05);
  EXPECT_EQ(key[8], 0x0A);
  EXPECT_EQ(key[10], 0x0C);
  EXPECT_EQ(key[12], 17);
}

// ---------- Count-min sketch ----------

TEST(Cms, NeverUnderestimates) {
  CountMinSketch cms(3, 64);
  const net::FiveTuple t{1, 2, 3, 4, 6};
  const auto key = five_tuple_key(t);
  std::uint64_t truth = 0;
  for (int i = 0; i < 50; ++i) {
    truth += 100;
    const std::uint64_t est = cms.update(key, 100);
    EXPECT_GE(est, truth);
  }
  EXPECT_GE(cms.estimate(key), truth);
}

TEST(Cms, ExactWhenAlone) {
  CountMinSketch cms(3, 1024);
  const auto key = five_tuple_key({9, 9, 9, 9, 6});
  cms.update(key, 1460);
  cms.update(key, 1460);
  EXPECT_EQ(cms.estimate(key), 2920u);
}

TEST(Cms, UnknownKeyEstimatesZeroWhenSparse) {
  CountMinSketch cms(3, 4096);
  cms.update(five_tuple_key({1, 2, 3, 4, 6}), 1000);
  EXPECT_EQ(cms.estimate(five_tuple_key({5, 6, 7, 8, 17})), 0u);
}

TEST(Cms, ClearResets) {
  CountMinSketch cms(2, 64);
  const auto key = five_tuple_key({1, 2, 3, 4, 6});
  cms.update(key, 5);
  cms.clear();
  EXPECT_EQ(cms.estimate(key), 0u);
}

TEST(Cms, DimensionsReported) {
  CountMinSketch cms(4, 512);
  EXPECT_EQ(cms.depth(), 4u);
  EXPECT_EQ(cms.width(), 512u);
}

// ---------- Parser ----------

PacketContext make_ctx(const net::Packet& pkt,
                       std::array<std::uint8_t, net::kMaxHeaderBytes>& buf) {
  const std::size_t len = net::serialize_headers(pkt, buf);
  PacketContext ctx;
  ctx.data = std::span<const std::uint8_t>(buf.data(), len);
  return ctx;
}

TEST(Parser, ExtractsTcp) {
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  const net::Packet pkt = net::make_tcp_packet(
      net::ipv4(1, 1, 1, 1), net::ipv4(2, 2, 2, 2), 10, 20, 777, 888,
      net::tcpflags::kSyn, 0, 1 << 16);
  PacketContext ctx = make_ctx(pkt, buf);
  EXPECT_TRUE(parse(ctx));
  EXPECT_TRUE(ctx.hdr.ipv4_valid);
  ASSERT_TRUE(ctx.hdr.tcp_valid);
  EXPECT_FALSE(ctx.hdr.udp_valid);
  EXPECT_EQ(ctx.hdr.tcp.seq, 777u);
  EXPECT_EQ(ctx.hdr.tcp.flags, net::tcpflags::kSyn);
}

TEST(Parser, ExtractsUdpAndIcmp) {
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  PacketContext u = make_ctx(net::make_udp_packet(1, 2, 7, 8, 10), buf);
  EXPECT_TRUE(parse(u));
  EXPECT_TRUE(u.hdr.udp_valid);
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf2{};
  PacketContext ic =
      make_ctx(net::make_icmp_packet(1, 2, 8, 44, 2, 56), buf2);
  EXPECT_TRUE(parse(ic));
  EXPECT_TRUE(ic.hdr.icmp_valid);
  EXPECT_EQ(ic.hdr.icmp.ident, 44);
}

TEST(Parser, RejectsTruncatedAndGarbage) {
  const std::uint8_t garbage[] = {0xDE, 0xAD};
  PacketContext ctx;
  ctx.data = garbage;
  EXPECT_FALSE(parse(ctx));
  EXPECT_FALSE(ctx.hdr.ethernet_valid);
}

TEST(Parser, RejectsTcpWithTruncatedL4) {
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  const net::Packet pkt =
      net::make_tcp_packet(1, 2, 3, 4, 0, 0, 0, 0, 0);
  const std::size_t len = net::serialize_headers(pkt, buf);
  PacketContext ctx;
  ctx.data = std::span<const std::uint8_t>(buf.data(), len - 5);
  EXPECT_FALSE(parse(ctx));
}

TEST(Parser, UnknownL4AcceptedAsIpv4Only) {
  std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
  net::Packet pkt = net::make_udp_packet(1, 2, 3, 4, 0);
  const std::size_t len = net::serialize_headers(pkt, buf);
  buf[net::kEthernetHeaderBytes + 9] = 47;  // GRE (the parser
  // does not verify the IPv4 checksum)
  PacketContext ctx;
  ctx.data = std::span<const std::uint8_t>(buf.data(), len);
  EXPECT_TRUE(parse(ctx));
  EXPECT_TRUE(ctx.hdr.ipv4_valid);
  EXPECT_FALSE(ctx.hdr.udp_valid);
  EXPECT_FALSE(ctx.hdr.tcp_valid);
}

// ---------- Digest queue ----------

TEST(DigestQueue, EmitAndDrain) {
  DigestQueue<int> q(8);
  q.emit(1);
  q.emit(2);
  EXPECT_EQ(q.pending(), 2u);
  const auto drained = q.drain();
  EXPECT_EQ(drained, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.drain().empty());
}

TEST(DigestQueue, DropsWhenFull) {
  DigestQueue<int> q(2);
  q.emit(1);
  q.emit(2);
  q.emit(3);
  EXPECT_EQ(q.dropped(), 1u);
  EXPECT_EQ(q.drain().size(), 2u);
}

// ---------- P4Switch target ----------

struct CountingProgram : P4Program {
  int tcp = 0, ingress_port0 = 0, ingress_port1 = 0;
  SimTime last_ts = 0;
  void ingress(PacketContext& ctx) override {
    if (ctx.hdr.tcp_valid) ++tcp;
    if (ctx.meta.ingress_port == P4Switch::kIngressTapPort) ++ingress_port0;
    if (ctx.meta.ingress_port == P4Switch::kEgressTapPort) ++ingress_port1;
    last_ts = ctx.meta.ingress_ts;
  }
};

TEST(P4Switch, RoutesMirrorPointsToPorts) {
  sim::Simulation sim;
  CountingProgram program;
  P4Switch sw(sim, "t");
  sw.load_program(program);
  const net::Packet pkt =
      net::make_tcp_packet(1, 2, 3, 4, 0, 0, net::tcpflags::kAck, 100, 0);
  sim.at(units::milliseconds(5), [&]() {
    sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
    sw.on_mirrored(pkt, net::MirrorPoint::kEgress);
  });
  sim.run();
  EXPECT_EQ(program.tcp, 2);
  EXPECT_EQ(program.ingress_port0, 1);
  EXPECT_EQ(program.ingress_port1, 1);
  EXPECT_EQ(program.last_ts, units::milliseconds(5));
  EXPECT_EQ(sw.processed_pkts(), 2u);
  EXPECT_EQ(sw.parse_errors(), 0u);
}

TEST(P4Switch, NoProgramLoadedIsSafe) {
  sim::Simulation sim;
  P4Switch sw(sim, "t");
  sw.on_mirrored(net::make_udp_packet(1, 2, 3, 4, 9),
                 net::MirrorPoint::kIngress);
  EXPECT_EQ(sw.processed_pkts(), 1u);
}

}  // namespace
}  // namespace p4s::p4
