// Unit tests: queues, links, ports, switches, hosts, TAPs, impairments.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "net/host.hpp"
#include "net/impairment.hpp"
#include "net/link.hpp"
#include "net/queue.hpp"
#include "net/switch.hpp"
#include "net/tap.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {
namespace {

Packet data_packet(std::uint32_t payload = 1460) {
  return make_tcp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 1000, 2000,
                         1, 0, tcpflags::kAck, payload, 65535);
}

/// Collects delivered packets with their delivery times.
class Collector : public PacketSink {
 public:
  explicit Collector(sim::Simulation& sim) : sim_(sim) {}
  void on_packet(const Packet& pkt) override {
    packets.push_back(pkt);
    times.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<SimTime> times;

 private:
  sim::Simulation& sim_;
};

// ---------- DropTailQueue ----------

TEST(DropTailQueue, FifoOrder) {
  DropTailQueue q(1 << 20);
  for (std::uint32_t i = 0; i < 5; ++i) {
    Packet p = data_packet(100 + i);
    EXPECT_TRUE(q.try_enqueue(p, i));
  }
  for (std::uint32_t i = 0; i < 5; ++i) {
    auto e = q.dequeue();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->pkt.payload_bytes(), 100 + i);
    EXPECT_EQ(e->enqueued_at, i);
  }
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(DropTailQueue, DropsWhenFull) {
  const Packet p = data_packet();
  DropTailQueue q(2ULL * p.wire_bytes());
  EXPECT_TRUE(q.try_enqueue(p, 0));
  EXPECT_TRUE(q.try_enqueue(p, 0));
  EXPECT_FALSE(q.try_enqueue(p, 0));  // over capacity -> drop-tail
  EXPECT_EQ(q.stats().dropped_pkts, 1u);
  EXPECT_EQ(q.stats().enqueued_pkts, 2u);
  EXPECT_EQ(q.stats().dropped_bytes, p.wire_bytes());
}

TEST(DropTailQueue, OccupancyAccountsWireBytes) {
  const Packet p = data_packet();
  DropTailQueue q(1 << 20);
  q.try_enqueue(p, 0);
  EXPECT_EQ(q.occupancy_bytes(), p.wire_bytes());
  EXPECT_DOUBLE_EQ(q.fill_fraction(),
                   static_cast<double>(p.wire_bytes()) / (1 << 20));
  q.dequeue();
  EXPECT_EQ(q.occupancy_bytes(), 0u);
}

TEST(DropTailQueue, PeakTracksHighWater) {
  const Packet p = data_packet();
  DropTailQueue q(10ULL * p.wire_bytes());
  for (int i = 0; i < 3; ++i) q.try_enqueue(p, 0);
  q.dequeue();
  q.dequeue();
  EXPECT_EQ(q.stats().peak_bytes, 3ULL * p.wire_bytes());
}

TEST(DropTailQueue, ZeroCapacityDropsEverything) {
  DropTailQueue q(0);
  EXPECT_FALSE(q.try_enqueue(data_packet(), 0));
  EXPECT_DOUBLE_EQ(q.fill_fraction(), 0.0);
}

// ---------- Link ----------

TEST(Link, DeliveryTimeIsSerializationPlusPropagation) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::mbps(100), units::milliseconds(5));
  link.set_sink(sink);
  const Packet p = data_packet();
  sim.at(0, [&]() { link.transmit(p); });
  sim.run();
  ASSERT_EQ(sink.packets.size(), 1u);
  const SimTime expected =
      units::transmission_time(p.wire_bytes(), units::mbps(100)) +
      units::milliseconds(5);
  EXPECT_EQ(sink.times[0], expected);
}

TEST(Link, TransmitReturnsSerializationEnd) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::mbps(10), 0);
  link.set_sink(sink);
  const Packet p = data_packet();
  SimTime done = 0;
  sim.at(0, [&]() { done = link.transmit(p); });
  sim.run_until(0);
  EXPECT_EQ(done, units::transmission_time(p.wire_bytes(), units::mbps(10)));
}

TEST(Link, LossRateDropsDeterministically) {
  sim::Simulation sim(123);
  Collector sink(sim);
  Link link(sim, units::gbps(10), 0);
  link.set_sink(sink);
  link.set_loss_rate(0.5);
  sim.at(0, [&]() {
    for (int i = 0; i < 1000; ++i) link.transmit(data_packet());
  });
  sim.run();
  EXPECT_EQ(link.delivered_pkts() + link.lost_pkts(), 1000u);
  EXPECT_NEAR(static_cast<double>(link.lost_pkts()), 500.0, 60.0);
  EXPECT_EQ(sink.packets.size(), link.delivered_pkts());
}

TEST(Link, RateChangeAffectsSubsequentTransmissions) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::mbps(100), 0);
  link.set_sink(sink);
  const Packet p = data_packet();
  SimTime t1 = 0, t2 = 0;
  sim.at(0, [&]() { t1 = link.transmit(p); });
  sim.at(units::seconds(1), [&]() {
    link.set_rate(units::mbps(10));
    t2 = link.transmit(p) - units::seconds(1);
  });
  sim.run();
  EXPECT_EQ(t2, 10 * t1);
}

// ---------- OutputPort ----------

TEST(OutputPort, SerializesBackToBack) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::mbps(100), 0);
  link.set_sink(sink);
  OutputPort port(sim, 1 << 20, link);
  const Packet p = data_packet();
  sim.at(0, [&]() {
    port.enqueue(p);
    port.enqueue(p);
    port.enqueue(p);
  });
  sim.run();
  ASSERT_EQ(sink.times.size(), 3u);
  const SimTime tx = units::transmission_time(p.wire_bytes(),
                                              units::mbps(100));
  EXPECT_EQ(sink.times[0], tx);
  EXPECT_EQ(sink.times[1], 2 * tx);
  EXPECT_EQ(sink.times[2], 3 * tx);
}

TEST(OutputPort, EgressHookReportsQueueingDelay) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::mbps(100), 0);
  link.set_sink(sink);
  OutputPort port(sim, 1 << 20, link);
  std::vector<SimTime> delays;
  port.add_egress_hook(
      [&](const Packet&, SimTime d) { delays.push_back(d); });
  const Packet p = data_packet();
  sim.at(0, [&]() {
    port.enqueue(p);
    port.enqueue(p);
  });
  sim.run();
  const SimTime tx = units::transmission_time(p.wire_bytes(),
                                              units::mbps(100));
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_EQ(delays[0], tx);      // store-and-forward time only
  EXPECT_EQ(delays[1], 2 * tx);  // waited one serialization
}

TEST(OutputPort, DropsWhenQueueFull) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::kbps(64), 0);
  link.set_sink(sink);
  const Packet p = data_packet();
  OutputPort port(sim, p.wire_bytes(), link);  // room for exactly one
  sim.at(0, [&]() {
    port.enqueue(p);  // starts transmitting (bypasses queue occupancy)
    port.enqueue(p);  // queued
    port.enqueue(p);  // dropped
  });
  sim.run();
  EXPECT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(port.queue().stats().dropped_pkts, 1u);
}

// ---------- LegacySwitch ----------

struct SwitchFixture {
  sim::Simulation sim;
  Collector sink_a{sim};
  Collector sink_b{sim};
  Link link_a{sim, units::gbps(1), 0};
  Link link_b{sim, units::gbps(1), 0};
  OutputPort port_a{sim, 1 << 20, link_a};
  OutputPort port_b{sim, 1 << 20, link_b};
  LegacySwitch sw{"sw"};

  SwitchFixture() {
    link_a.set_sink(sink_a);
    link_b.set_sink(sink_b);
    sw.add_port(port_a);
    sw.add_port(port_b);
  }
};

TEST(LegacySwitch, RoutesByExactMatch) {
  SwitchFixture f;
  f.sw.route(ipv4(10, 0, 0, 2), 0);
  f.sw.route(ipv4(10, 0, 0, 3), 1);
  Packet to_b = data_packet();
  to_b.ip.dst = ipv4(10, 0, 0, 3);
  f.sim.at(0, [&]() {
    f.sw.on_packet(data_packet());  // dst 10.0.0.2 -> port 0
    f.sw.on_packet(to_b);           // -> port 1
  });
  f.sim.run();
  EXPECT_EQ(f.sink_a.packets.size(), 1u);
  EXPECT_EQ(f.sink_b.packets.size(), 1u);
  EXPECT_EQ(f.sw.forwarded_pkts(), 2u);
}

TEST(LegacySwitch, DefaultRouteCatchesUnknown) {
  SwitchFixture f;
  f.sw.set_default_route(1);
  f.sim.at(0, [&]() { f.sw.on_packet(data_packet()); });
  f.sim.run();
  EXPECT_EQ(f.sink_b.packets.size(), 1u);
}

TEST(LegacySwitch, DropsUnroutable) {
  SwitchFixture f;
  f.sim.at(0, [&]() { f.sw.on_packet(data_packet()); });
  f.sim.run();
  EXPECT_EQ(f.sw.unroutable_pkts(), 1u);
  EXPECT_EQ(f.sink_a.packets.size(), 0u);
}

TEST(LegacySwitch, DecrementsTtlAndDropsExpired) {
  SwitchFixture f;
  f.sw.route(ipv4(10, 0, 0, 2), 0);
  Packet p = data_packet();
  p.ip.ttl = 2;  // survives this hop with ttl 1
  Packet dying = data_packet();
  dying.ip.ttl = 1;  // expires in transit (RFC 1812)
  f.sim.at(0, [&]() {
    f.sw.on_packet(p);
    f.sw.on_packet(dying);
  });
  f.sim.run();
  ASSERT_EQ(f.sink_a.packets.size(), 1u);
  EXPECT_EQ(f.sink_a.packets[0].ip.ttl, 1);
  EXPECT_EQ(f.sw.ttl_expired_pkts(), 1u);
  // No router address configured: expired silently, no ICMP generated.
  EXPECT_EQ(f.sink_b.packets.size(), 0u);
}

TEST(LegacySwitch, TtlExpiryGeneratesTimeExceededWhenAddressed) {
  SwitchFixture f;
  f.sw.set_address(ipv4(10, 0, 0, 1));
  // Route back toward the probe's source via port 1.
  f.sw.route(ipv4(10, 0, 0, 1), 1);
  Packet probe = make_icmp_packet(ipv4(10, 0, 0, 1), ipv4(10, 0, 0, 2), 8,
                                  77, 3, 28);
  probe.ip.ttl = 1;
  f.sim.at(0, [&]() { f.sw.on_packet(probe); });
  f.sim.run();
  ASSERT_EQ(f.sink_b.packets.size(), 1u);
  const Packet& reply = f.sink_b.packets[0];
  ASSERT_TRUE(reply.is_icmp());
  EXPECT_EQ(reply.icmp().type, 11);
  EXPECT_EQ(reply.ip.src, ipv4(10, 0, 0, 1));
  EXPECT_EQ(reply.icmp().ident, 77);  // probe identity preserved
  EXPECT_EQ(reply.icmp().seq, 3);
}

TEST(LegacySwitch, NoIcmpErrorAboutIcmpError) {
  SwitchFixture f;
  f.sw.set_address(ipv4(10, 0, 0, 1));
  f.sw.set_default_route(1);
  Packet error = make_icmp_packet(ipv4(9, 9, 9, 9), ipv4(10, 0, 0, 2), 11,
                                  1, 1, 28);
  error.ip.ttl = 1;
  f.sim.at(0, [&]() { f.sw.on_packet(error); });
  f.sim.run();
  EXPECT_EQ(f.sink_b.packets.size(), 0u);  // dropped silently
  EXPECT_EQ(f.sw.ttl_expired_pkts(), 1u);
}

TEST(LegacySwitch, UnrouteFallsBackToDefault) {
  SwitchFixture f;
  f.sw.route(ipv4(10, 0, 0, 2), 0);
  f.sw.set_default_route(1);
  f.sw.unroute(ipv4(10, 0, 0, 2));
  f.sim.at(0, [&]() { f.sw.on_packet(data_packet()); });
  f.sim.run();
  EXPECT_EQ(f.sink_b.packets.size(), 1u);
}

TEST(LegacySwitch, IngressHookSeesEveryArrival) {
  SwitchFixture f;
  int hook_count = 0;
  f.sw.add_ingress_hook([&](const Packet&) { ++hook_count; });
  f.sim.at(0, [&]() {
    f.sw.on_packet(data_packet());  // unroutable, still hooked
  });
  f.sim.run();
  EXPECT_EQ(hook_count, 1);
}

// ---------- Host ----------

TEST(Host, DemuxesByProtocolAndPort) {
  sim::Simulation sim;
  Host host(sim, "h", ipv4(10, 0, 0, 2));
  int tcp_hits = 0, udp_hits = 0;
  host.bind(Protocol::kTcp, 2000, [&](const Packet&) { ++tcp_hits; });
  host.bind(Protocol::kUdp, 2000, [&](const Packet&) { ++udp_hits; });
  host.on_packet(data_packet());  // tcp dst port 2000
  host.on_packet(make_udp_packet(ipv4(1, 1, 1, 1), host.ip(), 9, 2000, 10));
  host.on_packet(make_udp_packet(ipv4(1, 1, 1, 1), host.ip(), 9, 999, 10));
  EXPECT_EQ(tcp_hits, 1);
  EXPECT_EQ(udp_hits, 1);
  EXPECT_EQ(host.received_pkts(), 3u);
}

TEST(Host, IgnoresPacketsForOtherAddresses) {
  sim::Simulation sim;
  Host host(sim, "h", ipv4(10, 0, 0, 99));
  int hits = 0;
  host.bind(Protocol::kTcp, 2000, [&](const Packet&) { ++hits; });
  host.on_packet(data_packet());  // dst is 10.0.0.2, not ours
  EXPECT_EQ(hits, 0);
}

TEST(Host, UnbindStopsDelivery) {
  sim::Simulation sim;
  Host host(sim, "h", ipv4(10, 0, 0, 2));
  int hits = 0;
  host.bind(Protocol::kTcp, 2000, [&](const Packet&) { ++hits; });
  host.unbind(Protocol::kTcp, 2000);
  host.on_packet(data_packet());
  EXPECT_EQ(hits, 0);
}

TEST(Host, SendStampsIncreasingIpId) {
  sim::Simulation sim;
  Collector sink(sim);
  Link link(sim, units::gbps(1), 0);
  link.set_sink(sink);
  OutputPort port(sim, 1 << 20, link);
  Host host(sim, "h", ipv4(10, 0, 0, 1));
  host.attach_uplink(port);
  sim.at(0, [&]() {
    host.send(data_packet());
    host.send(data_packet());
  });
  sim.run();
  ASSERT_EQ(sink.packets.size(), 2u);
  EXPECT_EQ(sink.packets[1].ip.id,
            static_cast<std::uint16_t>(sink.packets[0].ip.id + 1));
}

TEST(Host, IcmpEchoAutoReply) {
  sim::Simulation sim;
  Host alice(sim, "alice", ipv4(10, 0, 0, 1));
  Host bob(sim, "bob", ipv4(10, 0, 0, 2));
  // Wire the two hosts back-to-back.
  Link ab(sim, units::gbps(1), units::microseconds(10));
  Link ba(sim, units::gbps(1), units::microseconds(10));
  ab.set_sink(bob);
  ba.set_sink(alice);
  OutputPort pa(sim, 1 << 20, ab), pb(sim, 1 << 20, ba);
  alice.attach_uplink(pa);
  bob.attach_uplink(pb);

  int replies = 0;
  alice.bind(Protocol::kIcmp, 7, [&](const Packet& pkt) {
    EXPECT_EQ(pkt.icmp().type, 0);
    EXPECT_EQ(pkt.icmp().seq, 5);
    ++replies;
  });
  sim.at(0, [&]() {
    alice.send(make_icmp_packet(alice.ip(), bob.ip(), 8, 7, 5, 56));
  });
  sim.run();
  EXPECT_EQ(replies, 1);
}

TEST(Host, EphemeralPortsDoNotRepeatQuickly) {
  sim::Simulation sim;
  Host host(sim, "h", ipv4(10, 0, 0, 1));
  const std::uint16_t first = host.allocate_port();
  const std::uint16_t second = host.allocate_port();
  EXPECT_NE(first, second);
  EXPECT_GE(first, 49152);
}

// ---------- TAP pair ----------

// Records every frame a TAP pair pushes, in push order.
struct RecordingBoundary : MirrorBoundary {
  std::vector<MirrorFrame> frames;
  void push(const MirrorFrame& frame) override { frames.push_back(frame); }
};

TEST(OpticalTapPair, MirrorsIngressAndEgressWithEqualLatency) {
  sim::Simulation sim;
  RecordingBoundary boundary;
  Collector sink(sim);
  Link link(sim, units::mbps(100), 0);
  link.set_sink(sink);
  OutputPort port(sim, 1 << 20, link);
  LegacySwitch sw("core");
  sw.add_port(port);
  sw.route(ipv4(10, 0, 0, 2), 0);

  OpticalTapPair taps(sim, boundary, units::microseconds(3));
  taps.attach(sw, port);

  const Packet p = data_packet();
  sim.at(0, [&]() { sw.on_packet(p); });
  sim.run();

  ASSERT_EQ(boundary.frames.size(), 2u);
  EXPECT_EQ(boundary.frames[0].point, MirrorPoint::kIngress);
  EXPECT_EQ(boundary.frames[1].point, MirrorPoint::kEgress);
  // Each copy is due one TAP latency after its mirror time, so the
  // copy-pair difference is the time in the switch (the latency cancels).
  EXPECT_EQ(boundary.frames[0].at, units::microseconds(3));
  const SimTime tx = units::transmission_time(p.wire_bytes(),
                                              units::mbps(100));
  EXPECT_EQ(boundary.frames[1].at - boundary.frames[0].at, tx);
  EXPECT_EQ(taps.mirrored_pkts(), 2u);
}

TEST(OpticalTapPair, WireBytesMatchFreshSerializationOfEachCopy) {
  // The TAP serializes each packet once and patches the TTL for the
  // egress copy (the core switch decremented it in between). Every
  // pushed frame must equal a from-scratch serialization of the packet
  // as the switch's own ingress/egress hooks saw it, with that packet's
  // on-wire length — i.e. the cache + patch path is invisible. Frames
  // are pushed in mirror order, so the k-th frame is the k-th packet the
  // hooks recorded.
  sim::Simulation sim;
  RecordingBoundary boundary;
  std::vector<Packet> seen;  // in mirror order, from the switch hooks
  Collector sink(sim);
  Link link(sim, units::mbps(100), 0);
  link.set_sink(sink);
  OutputPort port(sim, 1 << 20, link);
  LegacySwitch sw("core");
  sw.add_port(port);
  sw.route(ipv4(10, 0, 0, 2), 0);

  OpticalTapPair taps(sim, boundary, units::microseconds(3));
  taps.attach(sw, port);
  sw.add_ingress_hook([&seen](const Packet& p) { seen.push_back(p); });
  port.add_egress_hook(
      [&seen](const Packet& p, SimTime) { seen.push_back(p); });

  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    sim.at(static_cast<SimTime>(i) * units::microseconds(200),
           [&sw, p = data_packet()]() { sw.on_packet(p); });
  }
  sim.run();

  ASSERT_EQ(boundary.frames.size(), 2u * kPackets);
  ASSERT_EQ(seen.size(), boundary.frames.size());
  for (std::size_t k = 0; k < seen.size(); ++k) {
    const MirrorFrame& frame = boundary.frames[k];
    EXPECT_EQ(frame.point,
              k % 2 == 0 ? MirrorPoint::kIngress : MirrorPoint::kEgress);
    std::array<std::uint8_t, kMaxHeaderBytes> fresh{};
    const std::size_t len = serialize_headers(seen[k], fresh);
    ASSERT_EQ(frame.len, len) << "frame " << k;
    EXPECT_TRUE(std::equal(frame.bytes.begin(), frame.bytes.begin() + len,
                           fresh.begin()))
        << "frame " << k;
    EXPECT_EQ(frame.wire_len, kEthernetHeaderBytes + seen[k].ip.total_len);
  }
  // Every egress copy reuses the ingress copy's serialization.
  EXPECT_EQ(taps.serialize_cache_hits(), static_cast<std::uint64_t>(kPackets));
}

// ---------- Impairments ----------

TEST(RandomLossGate, PassesAndDropsByProbability) {
  sim::Simulation sim(5);
  Collector sink(sim);
  RandomLossGate gate(sim, sink, 0.25);
  for (int i = 0; i < 4000; ++i) gate.on_packet(data_packet());
  EXPECT_EQ(gate.passed() + gate.dropped(), 4000u);
  EXPECT_NEAR(static_cast<double>(gate.dropped()), 1000.0, 120.0);
}

TEST(RandomLossGate, ZeroRatePassesAll) {
  sim::Simulation sim;
  Collector sink(sim);
  RandomLossGate gate(sim, sink, 0.0);
  for (int i = 0; i < 100; ++i) gate.on_packet(data_packet());
  EXPECT_EQ(gate.dropped(), 0u);
  EXPECT_EQ(sink.packets.size(), 100u);
}

TEST(MmWaveLink, BlockageDegradesAndRestoresRate) {
  sim::Simulation sim;
  Link link(sim, units::mbps(200), 0);
  MmWaveLink::Config config;
  config.degradation_factor = 100.0;
  MmWaveLink mm(sim, link, config);
  mm.schedule_blockage(units::seconds(1), units::seconds(2));
  sim.run_until(units::milliseconds(1500));
  EXPECT_TRUE(mm.blocked());
  EXPECT_EQ(link.rate_bps(), units::mbps(200) / 100);
  EXPECT_GT(link.loss_rate(), 0.0);
  sim.run_until(units::seconds(4));
  EXPECT_FALSE(mm.blocked());
  EXPECT_EQ(link.rate_bps(), units::mbps(200));
  EXPECT_DOUBLE_EQ(link.loss_rate(), 0.0);
}

TEST(MmWaveLink, RssiDistinguishesStates) {
  sim::Simulation sim;
  Link link(sim, units::mbps(200), 0);
  MmWaveLink mm(sim, link);
  mm.schedule_blockage(units::seconds(1), units::seconds(2));
  sim.run_until(units::milliseconds(500));
  const double clear = mm.rssi_dbm();
  sim.run_until(units::milliseconds(2000));  // well past the ramp
  const double blocked = mm.rssi_dbm();
  EXPECT_GT(clear, -50.0);
  EXPECT_LT(blocked, -70.0);
}

}  // namespace
}  // namespace p4s::net
