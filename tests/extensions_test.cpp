// Tests: extension features drawn from the paper's related work —
// BBR congestion control (Gomez et al.), INT postcard export (Bezerra
// et al.), and P4CCI-style CCA identification (Kfoury et al.).
#include <gtest/gtest.h>

#include "controlplane/cca_identifier.hpp"
#include "core/monitoring_system.hpp"
#include "telemetry/int_export.hpp"

namespace p4s {
namespace {

// ---------- BBR ----------

struct BbrFixture : ::testing::Test {
  sim::Simulation sim{42};
  net::Network network{sim};
  net::PaperTopology topo;

  void SetUp() override {
    net::PaperTopologyConfig config;
    config.bottleneck_bps = units::mbps(200);
    topo = net::make_paper_topology(network, config);
  }
};

TEST_F(BbrFixture, AchievesNearBottleneckThroughput) {
  tcp::TcpFlow::Config fc;
  fc.sender.congestion_control = "bbr";
  tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], fc);
  flow.start_at(units::milliseconds(1));
  flow.stop_at(units::seconds(12));
  sim.run_until(units::seconds(16));
  EXPECT_TRUE(flow.complete());
  EXPECT_GT(flow.average_goodput_bps(sim.now()), 0.8 * 200e6);
}

TEST_F(BbrFixture, KeepsQueueShortUnlikeCubic) {
  // The defining BBR property: a single backlogged flow fills the link
  // while keeping the buffer near-empty. (BBR's 2.89x STARTUP may cost a
  // loss burst before DRAIN, as real BBRv1 does; the assertion is about
  // steady state, after t=3 s.)
  tcp::TcpFlow::Config fc;
  fc.sender.congestion_control = "bbr";
  tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], fc);
  flow.start_at(units::milliseconds(1));
  double peak_fill = 0.0;
  std::uint64_t drops_at_3s = 0;
  std::uint64_t retx_at_3s = 0;
  sim.at(units::seconds(3), [&]() {
    drops_at_3s = topo.bottleneck_port->queue().stats().dropped_pkts;
    retx_at_3s = flow.sender().stats().retransmitted_segments;
  });
  sim.every(units::seconds(3), units::milliseconds(100), [&]() {
    peak_fill = std::max(peak_fill,
                         topo.bottleneck_port->queue().fill_fraction());
    return sim.now() < units::seconds(12);
  });
  sim.run_until(units::seconds(12));
  EXPECT_LT(peak_fill, 0.35);  // CUBIC drives this to ~1.0
  EXPECT_EQ(flow.sender().stats().retransmitted_segments, retx_at_3s);
  EXPECT_EQ(topo.bottleneck_port->queue().stats().dropped_pkts,
            drops_at_3s);
}

TEST_F(BbrFixture, SurvivesRandomLoss) {
  // Loss-blindness: BBR holds its rate through noise that would halve a
  // loss-based window, and still delivers every byte.
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(0.005);
  tcp::TcpFlow::Config fc;
  fc.sender.congestion_control = "bbr";
  fc.sender.bytes_to_send = 20'000'000;
  tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], fc);
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(60));
  EXPECT_TRUE(flow.complete());
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 20'000'000u);
  // Rate stays high despite 0.5% loss: the Mathis ceiling for a
  // loss-based flow at this RTT/loss is ~4 Mbps; BBR holds an order of
  // magnitude more.
  const auto& s = flow.sender().stats();
  const double secs = units::to_seconds(s.end_time - s.established_time);
  EXPECT_GT(20'000'000.0 * 8.0 / secs, 0.5 * 200e6);
}

TEST(Bbr, PacingRateFollowsEstimate) {
  auto cc = tcp::make_congestion_control("bbr");
  cc->init(1460, 14600);
  EXPECT_EQ(cc->pacing_rate_bps(), 0u);  // no estimate yet
  // Feed ACKs implying ~100 Mbps delivery (1460 B per 116.8 us) for
  // several full-RTT measurement windows.
  SimTime now = units::milliseconds(1);
  for (int i = 0; i < 400; ++i) {
    now += 116'800;
    cc->on_ack(1460, now, units::milliseconds(10),
               units::milliseconds(10));
  }
  const double rate = static_cast<double>(cc->pacing_rate_bps());
  EXPECT_GT(rate, 50e6);
  EXPECT_LT(rate, 500e6);
  EXPECT_STREQ(cc->name(), "bbr");
}

// ---------- INT postcards ----------

struct IntFixture : ::testing::Test {
  core::MonitoringSystemConfig config;
  void init() {
    config.topology.bottleneck_bps = units::mbps(100);
    system = std::make_unique<core::MonitoringSystem>(config);
  }
  std::unique_ptr<core::MonitoringSystem> system;
};

TEST_F(IntFixture, DisabledByDefault) {
  init();
  system->start();
  auto& flow = system->add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system->run_until(units::seconds(3));
  EXPECT_EQ(system->program().int_exporter().postcards_emitted(), 0u);
  EXPECT_EQ(system->psonar().archiver().doc_count("p4sonar-int_postcard"),
            0u);
}

TEST_F(IntFixture, SamplesOneInN) {
  config.program.int_export.enabled = true;
  config.program.int_export.sample_every = 64;
  init();
  system->start();
  auto& flow = system->add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system->run_until(units::seconds(5));
  const auto& exporter = system->program().int_exporter();
  EXPECT_GT(exporter.packets_seen(), 1000u);
  EXPECT_NEAR(static_cast<double>(exporter.postcards_emitted()),
              static_cast<double>(exporter.packets_seen()) / 64.0, 3.0);
  // Postcards reach the archiver as Report_v2 documents.
  const auto docs =
      system->psonar().archiver().search("p4sonar-int_postcard");
  ASSERT_FALSE(docs.empty());
  EXPECT_TRUE(docs[0].contains("queue_delay_ns"));
  EXPECT_TRUE(docs[0].contains("flow_id"));
  EXPECT_TRUE(docs[0].contains("seq"));
}

TEST_F(IntFixture, PostcardsCarryQueueDelay) {
  config.program.int_export.enabled = true;
  config.program.int_export.sample_every = 16;
  init();
  system->start();
  auto& flow = system->add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system->run_until(units::seconds(6));
  // A CUBIC flow fills the 1-BDP buffer: sampled queue delays must show
  // real queuing (well above zero) on some postcards.
  const auto agg = system->psonar().archiver().aggregate(
      "p4sonar-int_postcard", "queue_delay_ns");
  ASSERT_GT(agg.count, 10u);
  EXPECT_GT(agg.max, static_cast<double>(units::milliseconds(5)));
}

// ---------- CCA identification ----------

class CcaIdent : public ::testing::TestWithParam<const char*> {};

TEST_P(CcaIdent, ClassifiesTheRunningCca) {
  const std::string cc = GetParam();
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(200);
  config.topology.core_buffer_bytes =
      units::bdp_bytes(units::mbps(200), units::milliseconds(50));
  core::MonitoringSystem system(config);
  system.start();
  cp::CcaIdentifier ident(system.control_plane());
  ident.start();

  tcp::TcpFlow::Config fc;
  fc.sender.congestion_control = cc;
  auto& flow = system.add_transfer(0, fc);
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(45));

  const auto verdicts = ident.classify_all();
  ASSERT_EQ(verdicts.size(), 1u);
  const cp::CcaClass got = verdicts.begin()->second;
  if (cc == "reno") {
    EXPECT_EQ(got, cp::CcaClass::kRenoLike);
  }
  if (cc == "cubic") {
    EXPECT_EQ(got, cp::CcaClass::kCubicLike);
  }
  if (cc == "bbr") {
    EXPECT_EQ(got, cp::CcaClass::kBbrLike);
  }
}

INSTANTIATE_TEST_SUITE_P(Ccas, CcaIdent,
                         ::testing::Values("reno", "cubic", "bbr"));

TEST(CcaIdentifier, UnknownBeforeEnoughSamples) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  core::MonitoringSystem system(config);
  system.start();
  cp::CcaIdentifier ident(system.control_plane());
  ident.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  // 0.9 s of 25 ms sampling = ~32 samples, below min_samples (40).
  system.run_until(units::milliseconds(900));
  for (const auto& [slot, verdict] : ident.classify_all()) {
    (void)slot;
    EXPECT_EQ(verdict, cp::CcaClass::kUnknown);
  }
}

// Every sample is the flight register as of the sample time: the same
// value a reader that runs the control plane's driver sync at that
// instant sees, whoever advances the pipeline shard.
TEST(CcaIdentifier, SamplesTheRegistersAsOfEachSampleTime) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  core::MonitoringSystem system(config);
  system.start();
  cp::CcaIdentifier ident(system.control_plane());
  ident.start();
  auto& sim = system.simulation();
  std::vector<double> flights;
  sim.every(sim.now() + units::milliseconds(25), units::milliseconds(25),
            [&]() {
              system.control_plane().sync_data_plane();
              const auto& program = system.control_plane().program();
              for (std::uint16_t slot = 0; slot < telemetry::kFlowSlots;
                   ++slot) {
                if (!program.tracker().occupied(slot)) continue;
                flights.push_back(static_cast<double>(
                    program.limit_classifier().flight_bytes(slot)));
              }
              return true;
            });
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(3));

  const auto verdicts = ident.classify_all();
  ASSERT_EQ(verdicts.size(), 1u);
  const auto f = ident.features(verdicts.begin()->first);
  ASSERT_EQ(f.samples, flights.size());
  double sum = 0.0;
  for (double v : flights) sum += v;
  const double mean = sum / static_cast<double>(flights.size());
  ASSERT_GT(mean, 0.0);
  EXPECT_NEAR(f.mean_flight, mean, mean * 1e-12);
}

TEST(CcaIdentifier, Names) {
  EXPECT_STREQ(cp::to_string(cp::CcaClass::kUnknown), "unknown");
  EXPECT_STREQ(cp::to_string(cp::CcaClass::kRenoLike), "reno-like");
  EXPECT_STREQ(cp::to_string(cp::CcaClass::kCubicLike), "cubic-like");
  EXPECT_STREQ(cp::to_string(cp::CcaClass::kBbrLike), "bbr-like");
}

}  // namespace
}  // namespace p4s
