// Encrypted-traffic telemetry: the spin-bit RTT engine's edge detection
// and rejection heuristics on synthetic QUIC streams (reordering across
// an edge, loss of the toggling packet, DCID collisions), the NIDS
// feature engine's per-flow features and threshold classifier, and the
// end-to-end acceptance runs — spin RTT vs ground truth under 1% loss,
// SYN-flood/port-scan alerts in the archive, a quiet elephant/mice
// baseline, and a parallel=4 byte-identity pin with both engines on.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "mpl/compiler.hpp"
#include "p4/p4_switch.hpp"
#include "telemetry/dataplane_program.hpp"

namespace p4s {
namespace {

using units::milliseconds;
using units::seconds;

// ---------------------------------------------------------------------
// Synthetic-stream engine tests: QUIC short headers straight through the
// P4 switch into the composed program.
// ---------------------------------------------------------------------

struct SpinFixture : ::testing::Test {
  sim::Simulation sim{7};
  telemetry::DataPlaneProgram::Config config;
  std::unique_ptr<telemetry::DataPlaneProgram> program;
  std::unique_ptr<p4::P4Switch> sw;

  const net::Ipv4Address client = net::ipv4(10, 0, 0, 10);
  const net::Ipv4Address server = net::ipv4(10, 1, 0, 10);

  void SetUp() override {
    config.spin_rtt.emplace();
    program = std::make_unique<telemetry::DataPlaneProgram>(config);
    sw = std::make_unique<p4::P4Switch>(sim, "dut");
    sw->load_program(*program);
  }

  telemetry::SpinRttEngine& engine() {
    return *program->engines_of<telemetry::SpinRttEngine>().at(0);
  }

  void feed_short(SimTime at, std::uint64_t dcid, std::uint32_t pn,
                  bool spin,
                  net::MirrorPoint point = net::MirrorPoint::kIngress) {
    sim.run_until(at);
    net::QuicHeader hdr;
    hdr.long_form = false;
    hdr.spin = spin;
    hdr.dcid = dcid;
    hdr.packet_number = pn;
    sw->on_mirrored(
        net::make_quic_packet(client, server, 40000, 4433, hdr, 1200),
        point);
  }
};

TEST_F(SpinFixture, MeasuresRttFromEdgeToEdgeGaps) {
  // One toggle per 20 ms "RTT", pn strictly advancing.
  const std::uint64_t dcid = 0xABCDEF0011223344ULL;
  bool spin = false;
  std::uint32_t pn = 1;
  for (int edge = 0; edge < 12; ++edge) {
    feed_short(milliseconds(10 + 20 * edge), dcid, pn++, spin);
    spin = !spin;
  }
  // First packet seeds the entry; 11 spin changes follow; the first edge
  // has no predecessor, so 10 gaps are sampled.
  EXPECT_EQ(engine().edges(), 11u);
  EXPECT_EQ(engine().samples(), 10u);
  const double p50 = engine().quantile_ns(0.5);
  EXPECT_NEAR(p50, static_cast<double>(milliseconds(20)),
              0.05 * static_cast<double>(milliseconds(20)));
  EXPECT_EQ(engine().rejected_reordered(), 0u);
  EXPECT_EQ(engine().rejected_outlier(), 0u);
}

TEST_F(SpinFixture, RejectsReorderedPacketAcrossAnEdge) {
  const std::uint64_t dcid = 0xABCDEF0011223344ULL;
  feed_short(milliseconds(10), dcid, 1, false);
  feed_short(milliseconds(30), dcid, 2, true);   // edge 1
  feed_short(milliseconds(50), dcid, 4, false);  // edge 2 -> sample 20 ms
  ASSERT_EQ(engine().samples(), 1u);
  // pn 3 straggles in from before edge 2, still carrying the old spin:
  // accepting it would fake a sub-millisecond extra edge.
  feed_short(milliseconds(51), dcid, 3, true);
  EXPECT_EQ(engine().rejected_reordered(), 1u);
  EXPECT_EQ(engine().edges(), 2u);
  EXPECT_EQ(engine().samples(), 1u);
  // The genuine next edge still measures cleanly.
  feed_short(milliseconds(70), dcid, 5, true);
  EXPECT_EQ(engine().samples(), 2u);
}

TEST_F(SpinFixture, RejectsDoubledGapWhenTogglingPacketIsLost) {
  const std::uint64_t dcid = 0x1122334455667788ULL;
  bool spin = false;
  std::uint32_t pn = 1;
  // Six clean 20 ms edges to settle the EWMA near 20 ms.
  for (int edge = 0; edge < 7; ++edge) {
    feed_short(milliseconds(10 + 20 * edge), dcid, pn++, spin);
    spin = !spin;
  }
  const std::uint64_t before = engine().samples();
  // The toggling packet is lost: the next observed edge lands a full
  // extra round trip late (70 ms gap > 3 x 20 ms EWMA).
  feed_short(milliseconds(10 + 20 * 6 + 70), dcid, pn++, spin);
  EXPECT_EQ(engine().rejected_outlier(), 1u);
  EXPECT_EQ(engine().samples(), before);
  // Recovery: subsequent 20 ms edges sample again (EWMA was untouched).
  spin = !spin;
  feed_short(milliseconds(10 + 20 * 6 + 90), dcid, pn++, spin);
  EXPECT_EQ(engine().samples(), before + 1);
}

TEST_F(SpinFixture, SubFloorGapIsRejected) {
  const std::uint64_t dcid = 0x99AA;
  feed_short(milliseconds(10), dcid, 1, false);
  feed_short(milliseconds(30), dcid, 2, true);
  // An "edge" 10 us later (below the 50 us floor) is reordering noise
  // the pn gate could not catch (pn advanced).
  feed_short(milliseconds(30) + units::microseconds(10), dcid, 3, false);
  EXPECT_EQ(engine().rejected_floor(), 1u);
  EXPECT_EQ(engine().samples(), 0u);
}

TEST_F(SpinFixture, IgnoresEgressCopiesAndLongHeaders) {
  const std::uint64_t dcid = 0xF00D;
  feed_short(milliseconds(10), dcid, 1, false);
  feed_short(milliseconds(30), dcid, 2, true);
  feed_short(milliseconds(30), dcid, 2, true, net::MirrorPoint::kEgress);
  EXPECT_EQ(engine().edges(), 1u);
  // A long header carries no spin bit.
  sim.run_until(milliseconds(40));
  net::QuicHeader hdr;
  hdr.long_form = true;
  hdr.dcid = dcid;
  hdr.scid = 0xBEEF;
  hdr.packet_number = 3;
  sw->on_mirrored(
      net::make_quic_packet(client, server, 40000, 4433, hdr, 1200),
      net::MirrorPoint::kIngress);
  EXPECT_EQ(engine().edges(), 1u);
}

TEST_F(SpinFixture, DcidCollisionEvictsAndIsCounted) {
  // A one-slot table makes every distinct DCID collide.
  config.spin_rtt->slots = 1;
  program = std::make_unique<telemetry::DataPlaneProgram>(config);
  sw = std::make_unique<p4::P4Switch>(sim, "dut2");
  sw->load_program(*program);

  const std::uint64_t a = 0xAAAA, b = 0xBBBB;
  feed_short(milliseconds(10), a, 1, false);
  feed_short(milliseconds(20), b, 1, true);  // evicts a
  EXPECT_EQ(engine().collisions(), 1u);
  feed_short(milliseconds(30), a, 2, true);  // evicts b
  EXPECT_EQ(engine().collisions(), 2u);
  // No cross-flow edge was ever credited: each arrival reset the slot.
  EXPECT_EQ(engine().edges(), 0u);
  EXPECT_EQ(engine().samples(), 0u);
}

// ---------------------------------------------------------------------
// NIDS feature engine on synthetic TCP streams.
// ---------------------------------------------------------------------

struct NidsFixture : ::testing::Test {
  sim::Simulation sim{7};
  telemetry::DataPlaneProgram::Config config;
  std::unique_ptr<telemetry::DataPlaneProgram> program;
  std::unique_ptr<p4::P4Switch> sw;

  void SetUp() override {
    config.nids.emplace();
    config.nids->syn_flood_syns = 50;
    config.nids->port_scan_ports = 10;
    config.nids->window = 0;  // every drain closes a window
    program = std::make_unique<telemetry::DataPlaneProgram>(config);
    sw = std::make_unique<p4::P4Switch>(sim, "dut");
    sw->load_program(*program);
    sim.run_until(milliseconds(1));
  }

  telemetry::NidsFeatureEngine& engine() {
    return *program->engines_of<telemetry::NidsFeatureEngine>().at(0);
  }

  void feed_tcp(net::Ipv4Address src, net::Ipv4Address dst,
                std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags, std::uint32_t payload = 0) {
    sw->on_mirrored(net::make_tcp_packet(src, dst, sport, dport, 1, 0,
                                         flags, payload, 1 << 16),
                    net::MirrorPoint::kIngress);
  }

  static const util::Json* find_alert(const std::vector<util::Json>& docs,
                                      const std::string& kind) {
    for (const auto& d : docs) {
      if (d.at("report").as_string() == "nids_alert" &&
          d.at("alert").as_string() == kind) {
        return &d;
      }
    }
    return nullptr;
  }
};

TEST_F(NidsFixture, SynFloodRaisesTaggedAlert) {
  const net::Ipv4Address victim = net::ipv4(10, 0, 0, 10);
  for (std::uint32_t i = 0; i < 60; ++i) {
    // Spoofed flood: rotating sources, no SYN-ACKs ever come back.
    feed_tcp(net::ipv4(172, 16, 0, 1) + i, victim,
             static_cast<std::uint16_t>(1024 + i), 443,
             net::tcpflags::kSyn);
  }
  const auto docs = engine().drain_digests(sim.now());
  const util::Json* alert = find_alert(docs, "syn_flood");
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->at("victim").as_string(), net::to_string(victim));
  EXPECT_EQ(alert->at("syns").as_int(), 60);
  EXPECT_EQ(engine().alerts_emitted(), 1u);
  // The window resets: a quiet next window raises nothing.
  const auto next = engine().drain_digests(sim.now());
  EXPECT_EQ(find_alert(next, "syn_flood"), nullptr);
}

TEST_F(NidsFixture, PortScanRaisesTaggedAlert) {
  const net::Ipv4Address attacker = net::ipv4(10, 2, 0, 10);
  const net::Ipv4Address victim = net::ipv4(10, 0, 0, 10);
  for (std::uint16_t p = 0; p < 15; ++p) {
    feed_tcp(attacker, victim, 40000, static_cast<std::uint16_t>(80 + p),
             net::tcpflags::kSyn);
  }
  const auto docs = engine().drain_digests(sim.now());
  const util::Json* alert = find_alert(docs, "port_scan");
  ASSERT_NE(alert, nullptr);
  EXPECT_EQ(alert->at("attacker").as_string(), net::to_string(attacker));
  EXPECT_EQ(alert->at("victim").as_string(), net::to_string(victim));
  EXPECT_GE(alert->at("distinct_ports").as_int(), 10);
}

TEST_F(NidsFixture, BenignHandshakeProducesFeaturesButNoAlert) {
  const net::Ipv4Address a = net::ipv4(10, 0, 0, 10);
  const net::Ipv4Address b = net::ipv4(10, 1, 0, 10);
  feed_tcp(a, b, 40000, 5201, net::tcpflags::kSyn);
  sim.run_until(sim.now() + milliseconds(10));
  feed_tcp(b, a, 5201, 40000,
           net::tcpflags::kSyn | net::tcpflags::kAck);
  sim.run_until(sim.now() + milliseconds(10));
  for (int i = 0; i < 5; ++i) {
    feed_tcp(a, b, 40000, 5201, net::tcpflags::kAck, 1460);
    sim.run_until(sim.now() + milliseconds(10));
  }
  const auto docs = engine().drain_digests(sim.now());
  ASSERT_EQ(docs.size(), 1u);  // one flow document, zero alerts
  const util::Json& d = docs[0];
  EXPECT_EQ(d.at("report").as_string(), "nids_features");
  EXPECT_EQ(d.at("syn").as_int(), 1);
  EXPECT_EQ(d.at("synack").as_int(), 1);
  EXPECT_EQ(d.at("fwd_pkts").as_int() + d.at("rev_pkts").as_int(), 7);
  EXPECT_NEAR(d.at("iat_mean_us").as_double(), 10'000.0, 500.0);
  EXPECT_GT(d.at("duration_ns").as_int(), 0);
  EXPECT_EQ(engine().alerts_emitted(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end acceptance runs on the full monitoring system.
// ---------------------------------------------------------------------

TEST(SpinRttSystem, TracksGroundTruthWithinTenPercentUnderLoss) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(200);
  config.program.spin_rtt.emplace();
  config.seed = 42;
  core::MonitoringSystem system(config);
  // 1% loss downstream of the observation point: lost toggles show up
  // as doubled gaps the outlier heuristic must reject.
  system.topology().ext_dtn_links[0].reverse_link->set_loss_rate(0.01);
  system.start();
  auto& flow = system.add_quic_transfer(0);
  flow.start_at(seconds(1));
  flow.stop_at(seconds(10));
  system.run_until(seconds(12));

  const auto engines =
      system.program().engines_of<const telemetry::SpinRttEngine>();
  ASSERT_EQ(engines.size(), 1u);
  const telemetry::SpinRttEngine* engine = engines[0];
  ASSERT_GT(engine->samples(), 20u);
  const double median = engine->quantile_ns(0.5);
  const double truth =
      static_cast<double>(flow.sender().rtt().srtt());
  ASSERT_GT(truth, 0.0);
  EXPECT_LE(std::abs(median - truth), 0.10 * truth)
      << "spin median " << median / 1e6 << " ms vs ground truth "
      << truth / 1e6 << " ms";
}

TEST(NidsSystem, SynFloodWorkloadLandsTaggedAlertInArchive) {
  core::MonitoringSystemConfig config;
  config.seed = 42;
  config.program.nids.emplace();
  config.program.nids->syn_flood_syns = 100;
  workload::WorkloadSpec flood;
  flood.kind = workload::WorkloadSpec::Kind::kSynFlood;
  flood.src = "ext0";
  flood.dst = "dtn_int";
  flood.start = seconds(1);
  flood.duration = seconds(3);
  flood.pps = 2000.0;
  config.workloads.push_back(flood);
  core::MonitoringSystem system(config);
  system.start();
  system.run_until(seconds(5));

  EXPECT_GT(system.workloads().at(0)->packets_sent(), 1000u);
  const auto alerts =
      system.psonar().archiver().search("p4sonar-nids_alert");
  ASSERT_FALSE(alerts.empty());
  bool tagged = false;
  for (const auto& a : alerts) {
    if (a.at("alert").as_string() == "syn_flood") tagged = true;
  }
  EXPECT_TRUE(tagged);
}

TEST(NidsSystem, PortScanWorkloadLandsTaggedAlertInArchive) {
  core::MonitoringSystemConfig config;
  config.seed = 42;
  config.program.nids.emplace();
  workload::WorkloadSpec scan;
  scan.kind = workload::WorkloadSpec::Kind::kPortScan;
  scan.src = "ext1";
  scan.dst = "dtn_int";
  scan.start = seconds(1);
  scan.pps = 500.0;
  scan.port = 1;
  scan.port_count = 200;
  config.workloads.push_back(scan);
  core::MonitoringSystem system(config);
  system.start();
  system.run_until(seconds(4));

  const auto alerts =
      system.psonar().archiver().search("p4sonar-nids_alert");
  ASSERT_FALSE(alerts.empty());
  bool tagged = false;
  for (const auto& a : alerts) {
    if (a.at("alert").as_string() == "port_scan") tagged = true;
  }
  EXPECT_TRUE(tagged);
}

TEST(NidsSystem, ElephantMiceBaselineRaisesNoAlerts) {
  core::MonitoringSystemConfig config;
  config.seed = 42;
  config.program.nids.emplace();
  workload::WorkloadSpec mix;
  mix.kind = workload::WorkloadSpec::Kind::kElephantMice;
  mix.src = "ext0";
  mix.dst = "dtn_int";
  mix.start = seconds(1);
  mix.duration = seconds(5);
  config.workloads.push_back(mix);
  core::MonitoringSystem system(config);
  system.start();
  system.run_until(seconds(8));

  // Benign bulk + short flows: features flow into the archive, alerts
  // do not.
  EXPECT_GT(
      system.psonar().archiver().doc_count("p4sonar-nids_features"), 0u);
  EXPECT_EQ(system.psonar().archiver().doc_count("p4sonar-nids_alert"),
            0u);
  const auto nids =
      system.program().engines_of<const telemetry::NidsFeatureEngine>();
  ASSERT_EQ(nids.size(), 1u);
  EXPECT_EQ(nids[0]->alerts_emitted(), 0u);
}

// ---------------------------------------------------------------------
// Parallel byte-identity pin: the new engines' report series must be
// byte-identical between serial and parallel=4 sharded execution.
// ---------------------------------------------------------------------

std::vector<std::string> run_quic_scenario(std::size_t parallel) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(50);
  config.seed = 42;
  config.parallel = parallel;
  config.program.spin_rtt.emplace();
  config.program.nids.emplace();
  config.program.nids->syn_flood_syns = 100;
  config.switches.clear();
  core::MonitoredSwitchConfig core_sw;
  core_sw.id = "core";
  core_sw.tap = core::TapPoint::kCoreBottleneck;
  config.switches.push_back(core_sw);
  core::MonitoredSwitchConfig ext_sw;
  ext_sw.id = "ext0";
  ext_sw.tap = core::TapPoint::kWanExt0;
  config.switches.push_back(ext_sw);
  workload::WorkloadSpec flood;
  flood.kind = workload::WorkloadSpec::Kind::kSynFlood;
  flood.src = "ext1";
  flood.dst = "dtn_int";
  flood.start = seconds(2);
  flood.duration = seconds(2);
  flood.pps = 1000.0;
  config.workloads.push_back(flood);

  core::MonitoringSystem system(config);
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  auto& q = system.add_quic_transfer(0);
  q.start_at(seconds(1));
  q.stop_at(seconds(5));
  system.add_transfer(1).start_at(seconds(1));
  system.run_until(seconds(6));

  std::vector<std::string> lines;
  auto& archiver = system.psonar().archiver();
  for (const auto& index : archiver.indices()) {
    for (const auto& doc : archiver.search(index)) {
      lines.push_back(doc.dump());
    }
  }
  return lines;
}

// The shipped example program: QUIC fields reach interpreted programs
// through the same FieldView table the built-in engines read.
TEST(MplQuic, ShippedSpinRttProgramCountsShortHeaders) {
  const std::string file =
      std::string(P4S_EXAMPLES_DIR) + "/programs/spin_rtt.mpl.json";
  std::ifstream in(file);
  ASSERT_TRUE(in.good()) << "cannot open " << file;
  std::ostringstream text;
  text << in.rdbuf();

  core::MonitoringSystemConfig config;
  config.seed = 42;
  config.topology.bottleneck_bps = units::mbps(200);
  config.programs.push_back(mpl::compile_program_text(text.str(), file));
  core::MonitoringSystem system(config);
  system.start();
  auto& flow = system.add_quic_transfer(0);
  flow.start_at(seconds(1));
  flow.stop_at(seconds(3));
  system.run_until(seconds(5));

  ASSERT_NE(system.monitored_switch(0).program_vm().find("spin_rtt"),
            nullptr);
  EXPECT_TRUE(system.monitored_switch(0).control_plane().has_extractor(
      "vm_quic_short_packets"));
  // The match predicate (is_quic && !long_header) saw the transfer's
  // short-header packets and counted them into register 0.
  const auto docs = system.psonar().archiver().search(
      "p4sonar-vm_quic_short_packets");
  ASSERT_FALSE(docs.empty());
  double last = 0.0;
  for (const auto& d : docs) {
    last = std::max(last, d.at("quic_short_pkts").as_double());
  }
  EXPECT_GT(last, 1000.0);
}

TEST(ParallelIdentity, QuicAndNidsEnginesAreByteIdenticalAtParallel4) {
  const auto serial = run_quic_scenario(1);
  ASSERT_FALSE(serial.empty());
  const auto parallel = run_quic_scenario(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "archived doc " << i;
  }
}

}  // namespace
}  // namespace p4s
