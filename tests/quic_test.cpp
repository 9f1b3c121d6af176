// QUIC-like transport tests: handshake + bulk transfer over the real
// simulated path, loss recovery (packet-threshold + RTO), spin-bit
// emission per RFC 9000 §17.4, deterministic connection-ID derivation,
// and wire-format round trips: serialized headers read back by the P4
// parser.
#include <gtest/gtest.h>

#include "net/topology.hpp"
#include "net/wire.hpp"
#include "p4/parser.hpp"
#include "quic/flow.hpp"
#include "sim/simulation.hpp"

namespace p4s::quic {
namespace {

TEST(QuicWire, ShortHeaderRoundTrips) {
  net::QuicHeader hdr;
  hdr.long_form = false;
  hdr.spin = true;
  hdr.dcid = 0xDEADBEEFCAFEF00DULL;
  hdr.packet_number = 77;
  net::Packet pkt = net::make_quic_packet(net::ipv4(10, 0, 0, 10),
                                          net::ipv4(10, 1, 0, 10), 40000,
                                          4433, hdr, 1200);
  std::vector<std::uint8_t> wire(net::kMaxHeaderBytes);
  wire.resize(net::serialize_headers(pkt, wire));
  EXPECT_EQ(wire.size(), net::kEthernetHeaderBytes + 20 + 8 +
                             net::kQuicShortHeaderBytes);
  p4::PacketContext ctx;
  ctx.data = wire;
  ASSERT_TRUE(p4::parse(ctx));
  ASSERT_TRUE(ctx.hdr.udp_valid);
  ASSERT_TRUE(ctx.hdr.quic_valid);
  EXPECT_FALSE(ctx.hdr.quic.long_form);
  EXPECT_TRUE(ctx.hdr.quic.spin);
  EXPECT_EQ(ctx.hdr.quic.dcid, hdr.dcid);
  EXPECT_EQ(ctx.hdr.quic.packet_number, 77u);
}

TEST(QuicWire, LongHeaderRoundTrips) {
  net::QuicHeader hdr;
  hdr.long_form = true;
  hdr.type = 0;  // Initial
  hdr.dcid = 0x1111222233334444ULL;
  hdr.scid = 0x5555666677778888ULL;
  hdr.packet_number = 0;
  net::Packet pkt = net::make_quic_packet(net::ipv4(10, 0, 0, 10),
                                          net::ipv4(10, 1, 0, 10), 40000,
                                          4433, hdr, 1200);
  std::vector<std::uint8_t> wire(net::kMaxHeaderBytes);
  wire.resize(net::serialize_headers(pkt, wire));
  EXPECT_EQ(wire.size(), net::kEthernetHeaderBytes + 20 + 8 +
                             net::kMaxQuicHeaderBytes);
  p4::PacketContext ctx;
  ctx.data = wire;
  ASSERT_TRUE(p4::parse(ctx));
  ASSERT_TRUE(ctx.hdr.quic_valid);
  EXPECT_TRUE(ctx.hdr.quic.long_form);
  EXPECT_EQ(ctx.hdr.quic.type, hdr.type);
  EXPECT_EQ(ctx.hdr.quic.dcid, hdr.dcid);
  EXPECT_EQ(ctx.hdr.quic.scid, hdr.scid);
  EXPECT_EQ(ctx.hdr.quic.packet_number, hdr.packet_number);
}

struct QuicFlowFixture : ::testing::Test {
  sim::Simulation sim{42};
  net::Network network{sim};
  net::PaperTopology topo;

  void SetUp() override {
    net::PaperTopologyConfig config;
    config.bottleneck_bps = units::mbps(200);
    topo = net::make_paper_topology(network, config);
  }
};

TEST_F(QuicFlowFixture, HandshakeAndFixedTransferCompletes) {
  QuicFlow::Config config;
  config.sender.bytes_to_send = 2'000'000;
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], config);
  bool completed = false;
  flow.set_on_complete([&]() { completed = true; });
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(20));
  EXPECT_TRUE(completed);
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 2'000'000u);
  EXPECT_TRUE(flow.receiver().stats().fin_received);
  EXPECT_EQ(flow.sender().stats().stream_bytes_sent, 2'000'000u);
  EXPECT_EQ(flow.sender().stats().bytes_acked, 2'000'000u);
  EXPECT_GT(flow.sender().stats().established_time, 0u);
}

TEST_F(QuicFlowFixture, UnboundedTransferStopsOnRequest) {
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0]);
  flow.start_at(units::milliseconds(1));
  flow.stop_at(units::seconds(5));
  sim.run_until(units::seconds(12));
  EXPECT_TRUE(flow.complete());
  EXPECT_GT(flow.receiver().stats().goodput_bytes, 1'000'000u);
  EXPECT_EQ(flow.receiver().stats().goodput_bytes,
            flow.sender().stats().stream_bytes_sent);
}

TEST_F(QuicFlowFixture, DataIntactUnderRandomLoss) {
  // 1% loss toward the receiver: packet-threshold detection plus the
  // RTO backstop must still deliver every stream byte exactly once.
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(0.01);
  QuicFlow::Config config;
  config.sender.bytes_to_send = 1'000'000;
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], config);
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(60));
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 1'000'000u);
  EXPECT_GT(flow.sender().stats().retransmitted_packets, 0u);
}

TEST_F(QuicFlowFixture, SurvivesAckPathLoss) {
  topo.ext_dtn_links[0].forward_link->set_loss_rate(0.01);
  QuicFlow::Config config;
  config.sender.bytes_to_send = 1'000'000;
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], config);
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(60));
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 1'000'000u);
}

TEST_F(QuicFlowFixture, SpinBitTogglesOncePerRtt) {
  // ~3 s established at ~20 ms RTT: the client must have emitted on the
  // order of 150 spin edges — one per RTT, not per packet.
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0]);
  flow.start_at(units::milliseconds(1));
  flow.stop_at(units::seconds(3));
  sim.run_until(units::seconds(8));
  const auto& s = flow.sender().stats();
  EXPECT_GT(s.spin_flips, 20u);
  EXPECT_LT(s.spin_flips, s.packets_sent / 2);
}

TEST_F(QuicFlowFixture, ConnectionIdsAreDeterministicAndDistinct) {
  QuicFlow a(sim, *topo.dtn_internal, *topo.dtn_ext[0]);
  QuicFlow b(sim, *topo.dtn_internal, *topo.dtn_ext[1]);
  EXPECT_NE(a.server_cid(), 0u);
  EXPECT_NE(a.client_cid(), 0u);
  EXPECT_NE(a.server_cid(), a.client_cid());
  EXPECT_NE(a.server_cid(), b.server_cid());
  // Same endpoints + ports -> same derivation in a fresh simulation.
  sim::Simulation sim2{42};
  net::Network network2{sim2};
  net::PaperTopologyConfig config;
  config.bottleneck_bps = units::mbps(200);
  net::PaperTopology topo2 = net::make_paper_topology(network2, config);
  QuicFlow a2(sim2, *topo2.dtn_internal, *topo2.dtn_ext[0]);
  EXPECT_EQ(a.server_cid(), a2.server_cid());
  EXPECT_EQ(a.client_cid(), a2.client_cid());
}

TEST_F(QuicFlowFixture, HandshakeSurvivesInitialLoss) {
  // Heavy early loss: the Initial (or its reply) may be dropped; the
  // client's RTO must re-drive the handshake until it establishes.
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(0.3);
  QuicFlow::Config config;
  config.sender.bytes_to_send = 50'000;
  QuicFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], config);
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(2));
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(0.0);
  sim.run_until(units::seconds(30));
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 50'000u);
}

}  // namespace
}  // namespace p4s::quic
