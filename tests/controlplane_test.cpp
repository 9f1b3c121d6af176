// Tests: switch control plane — extraction timers at configured rates,
// metric derivation from register deltas, alert thresholds with rate
// boost, digest consumption, terminated-flow reports and aggregates.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "controlplane/control_plane.hpp"
#include "p4/hash.hpp"
#include "p4/p4_switch.hpp"
#include "telemetry/dataplane_program.hpp"

namespace p4s::cp {
namespace {

/// Sink collecting Report_v1 documents by kind.
struct CollectingSink : ReportSink {
  std::vector<util::Json> all;
  void on_report(const util::Json& report) override {
    all.push_back(report);
  }
  std::size_t count(const std::string& kind) const {
    std::size_t n = 0;
    for (const auto& doc : all) {
      if (doc.at("report").as_string() == kind) ++n;
    }
    return n;
  }
  std::vector<util::Json> of(const std::string& kind) const {
    std::vector<util::Json> out;
    for (const auto& doc : all) {
      if (doc.at("report").as_string() == kind) out.push_back(doc);
    }
    return out;
  }
};

struct ControlPlaneFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram::Config dp_config;
  std::unique_ptr<telemetry::DataPlaneProgram> program;
  std::unique_ptr<p4::P4Switch> sw;
  ControlPlaneConfig cp_config;
  std::unique_ptr<ControlPlane> cp;
  CollectingSink sink;

  const net::Ipv4Address src = net::ipv4(10, 0, 0, 10);
  const net::Ipv4Address dst = net::ipv4(10, 1, 0, 10);
  std::uint32_t seq = 1000;
  std::uint16_t ip_id = 0;

  void SetUp() override {
    dp_config.tracker.promotion_bytes = 1;  // promote on first packet
    program = std::make_unique<telemetry::DataPlaneProgram>(dp_config);
    sw = std::make_unique<p4::P4Switch>(sim, "dut");
    sw->load_program(*program);
    cp_config.core_buffer_bytes = 1'000'000;
    cp_config.bottleneck_bps = units::mbps(100);
    cp_config.flow_idle_timeout = units::seconds(2);
  }

  void make_cp() {
    cp = std::make_unique<ControlPlane>(sim, *program, cp_config);
    cp->set_sink(&sink);
  }

  net::Packet data_pkt(std::uint32_t payload = 1460) {
    net::Packet p =
        net::make_tcp_packet(src, dst, 40000, 5201, seq, 0,
                             net::tcpflags::kAck, payload, 1 << 16);
    p.ip.id = ip_id++;
    seq += payload;
    return p;
  }

  /// Drive a steady packet stream (ingress+egress copies) at `pps` for
  /// `duration`, starting now.
  void stream(double pps, SimTime duration) {
    const auto gap = static_cast<SimTime>(1e9 / pps);
    sim.every(sim.now() + gap, gap, [this, until = sim.now() + duration]() {
      net::Packet p = data_pkt();
      sw->on_mirrored(p, net::MirrorPoint::kIngress);
      sw->on_mirrored(p, net::MirrorPoint::kEgress);
      return sim.now() < until;
    });
  }
};

TEST_F(ControlPlaneFixture, ThroughputExtractedAtConfiguredRate) {
  cp_config.metrics["throughput"].interval = units::milliseconds(500);  // t_N
  make_cp();
  cp->start();
  stream(1000.0, units::seconds(5));
  sim.run_until(units::seconds(5));
  // ~10 throughput ticks in 5 s.
  const auto reports = sink.of("throughput");
  EXPECT_GE(reports.size(), 8u);
  EXPECT_LE(reports.size(), 11u);
  // 1000 pps x 1500 B = 12 Mbps; extraction uses IP total_len.
  const double bps = reports.back().at("throughput_bps").as_double();
  EXPECT_NEAR(bps, 1000.0 * 1500 * 8, 0.1 * 1000 * 1500 * 8);
}

TEST_F(ControlPlaneFixture, FlowDetectedReportEmitted) {
  make_cp();
  cp->start();
  stream(500.0, units::seconds(1));
  sim.run_until(units::seconds(1));
  const auto detected = sink.of("flow_detected");
  ASSERT_EQ(detected.size(), 1u);
  EXPECT_EQ(detected[0].at("flow").at("src_ip").as_string(), "10.0.0.10");
  EXPECT_EQ(detected[0].at("flow").at("dst_ip").as_string(), "10.1.0.10");
  EXPECT_EQ(cp->flows().size(), 1u);
}

TEST_F(ControlPlaneFixture, RttReportConvertsToMilliseconds) {
  make_cp();
  cp->start();
  // Park a data packet; ACK arrives 40 ms later.
  sim.at(units::milliseconds(10), [&]() {
    sw->on_mirrored(data_pkt(), net::MirrorPoint::kIngress);
  });
  sim.at(units::milliseconds(50), [&]() {
    net::Packet ack = net::make_tcp_packet(dst, src, 5201, 40000, 1, seq,
                                           net::tcpflags::kAck, 0, 1 << 16);
    sw->on_mirrored(ack, net::MirrorPoint::kIngress);
  });
  sim.run_until(units::seconds(3));
  const auto reports = sink.of("rtt");
  ASSERT_FALSE(reports.empty());
  EXPECT_NEAR(reports.back().at("rtt_ms").as_double(), 40.0, 0.5);
}

TEST_F(ControlPlaneFixture, QueueOccupancyFromDelayAndDrainTime) {
  make_cp();
  cp->start();
  // Queue delay 40 ms; drain time = 1 MB * 8 / 100 Mbps = 80 ms -> 50%.
  const net::Packet p = data_pkt();
  sim.at(units::milliseconds(10), [&]() {
    sw->on_mirrored(p, net::MirrorPoint::kIngress);
  });
  sim.at(units::milliseconds(50), [&]() {
    sw->on_mirrored(p, net::MirrorPoint::kEgress);
  });
  sim.run_until(units::seconds(2));
  const auto reports = sink.of("queue_occupancy");
  ASSERT_FALSE(reports.empty());
  EXPECT_NEAR(reports.back().at("occupancy_pct").as_double(), 50.0, 1.0);
}

TEST_F(ControlPlaneFixture, AlertFiresAndBoostsRate) {
  cp_config.metrics["queue_occupancy"] = {
      units::seconds(1), /*threshold=*/30.0, /*enabled=*/true,
      /*boosted=*/units::milliseconds(100)};
  make_cp();
  cp->start();
  int alerts_seen = 0;
  cp->set_on_alert([&](const ControlPlane::Alert& alert) {
    EXPECT_EQ(alert.metric_name, "queue_occupancy");
    EXPECT_GE(alert.value, 30.0);
    ++alerts_seen;
  });
  // Persistent 40 ms queue delay = 50% occupancy > 30% threshold.
  sim.every(units::milliseconds(50), units::milliseconds(50), [this]() {
    net::Packet p = data_pkt();
    sw->on_mirrored(p, net::MirrorPoint::kIngress);
    sim.after(units::milliseconds(40), [this, p]() {
      sw->on_mirrored(p, net::MirrorPoint::kEgress);
    });
    return sim.now() < units::seconds(5);
  });
  sim.run_until(units::seconds(5));
  EXPECT_GT(alerts_seen, 0);
  EXPECT_FALSE(cp->alerts().empty());
  // Boost: after the first alert (~1 s) the interval drops to 100 ms, so
  // far more than 5 extractions happen in 5 s.
  EXPECT_GT(sink.count("queue_occupancy"), 20u);
  EXPECT_GT(sink.count("alert"), 0u);
}

TEST_F(ControlPlaneFixture, NoAlertWhenDisabled) {
  make_cp();
  cp->start();
  stream(2000.0, units::seconds(2));
  sim.run_until(units::seconds(2));
  EXPECT_TRUE(cp->alerts().empty());
}

TEST_F(ControlPlaneFixture, IdleFlowFinalized) {
  make_cp();
  cp->start();
  stream(1000.0, units::seconds(1));
  sim.run_until(units::seconds(5));  // idle > 2 s after the stream ends
  ASSERT_EQ(cp->final_reports().size(), 1u);
  const auto& report = cp->final_reports()[0];
  EXPECT_GT(report.packets, 900u);
  EXPECT_EQ(report.bytes, report.packets * 1500);
  EXPECT_GT(report.avg_throughput_bps, 0.0);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_EQ(cp->flows().size(), 0u);  // slot released
  EXPECT_EQ(sink.count("flow_final"), 1u);
}

TEST_F(ControlPlaneFixture, FinFinalizesImmediately) {
  make_cp();
  cp->start();
  sim.at(units::milliseconds(100), [&]() {
    sw->on_mirrored(data_pkt(), net::MirrorPoint::kIngress);
    net::Packet fin = net::make_tcp_packet(
        src, dst, 40000, 5201, seq, 0,
        net::tcpflags::kFin | net::tcpflags::kAck, 0, 1 << 16);
    sw->on_mirrored(fin, net::MirrorPoint::kIngress);
  });
  sim.run_until(units::milliseconds(300));  // well before idle timeout
  EXPECT_EQ(cp->final_reports().size(), 1u);
}

TEST_F(ControlPlaneFixture, AggregatesIncludeFairnessAndUtilization) {
  make_cp();
  cp->start();
  // Two flows with a 3:1 packet-rate ratio.
  std::uint32_t seq2 = 5000;
  std::uint16_t id2 = 0;
  stream(3000.0, units::seconds(3));
  sim.every(units::milliseconds(1), units::milliseconds(1), [&]() {
    net::Packet p = net::make_tcp_packet(src, net::ipv4(10, 2, 0, 10),
                                         40001, 5201, seq2, 0,
                                         net::tcpflags::kAck, 1460, 1 << 16);
    p.ip.id = id2++;
    seq2 += 1460;
    sw->on_mirrored(p, net::MirrorPoint::kIngress);
    return sim.now() < units::seconds(3);
  });
  sim.run_until(units::seconds(3));
  const auto& agg = cp->aggregates();
  EXPECT_EQ(agg.active_flows, 2u);
  // Jain for rates {3,1}: 16/(2*10) = 0.8.
  ASSERT_TRUE(agg.fairness.has_value());
  EXPECT_NEAR(*agg.fairness, 0.8, 0.05);
  // 3000 pps * 1500 B * 8 = 36 Mbps + 12 Mbps = 48 of 100 Mbps.
  EXPECT_NEAR(agg.link_utilization, 0.48, 0.06);
  EXPECT_GT(sink.count("aggregate"), 0u);
}

TEST_F(ControlPlaneFixture, IdleLinkFairnessIsUndefined) {
  make_cp();
  cp->start();
  // No traffic at all: extraction ticks happen, but there is nothing to
  // share, so the fairness index must be undefined — not 1.0.
  sim.run_until(units::seconds(3));
  EXPECT_FALSE(cp->aggregates().fairness.has_value());
  const auto reports = sink.of("aggregate");
  ASSERT_FALSE(reports.empty());
  EXPECT_TRUE(reports.back().at("fairness").is_null());
}

TEST_F(ControlPlaneFixture, SamplesPerSecondConfiguration) {
  make_cp();
  cp->set_samples_per_second("rtt", 4.0);
  EXPECT_EQ(cp->extractor_config("rtt").interval, units::milliseconds(250));
  // The config() snapshot holds the same entry.
  EXPECT_EQ(cp->config().metrics.at("rtt").interval,
            units::milliseconds(250));
}

TEST_F(ControlPlaneFixture, RejectsInvalidSampleRates) {
  make_cp();
  cp->set_samples_per_second("rtt", 4.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(cp->set_samples_per_second("rtt", -1.0),
               std::invalid_argument);
  EXPECT_THROW(cp->set_samples_per_second("rtt", 0.0),
               std::invalid_argument);
  EXPECT_THROW(cp->set_samples_per_second("rtt", nan),
               std::invalid_argument);
  EXPECT_THROW(cp->set_samples_per_second("rtt", inf),
               std::invalid_argument);
  EXPECT_THROW(cp->set_samples_per_second("no_such_metric", 1.0),
               std::invalid_argument);
  // A rejected rate must not have disturbed the armed timer.
  EXPECT_EQ(cp->extractor_config("rtt").interval,
            units::milliseconds(250));
}

TEST_F(ControlPlaneFixture, RejectsInvalidAlertThresholds) {
  make_cp();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(cp->set_alert("rtt", -5.0), std::invalid_argument);
  EXPECT_THROW(cp->set_alert("rtt", nan), std::invalid_argument);
  EXPECT_THROW(cp->set_alert("rtt", 10.0, /*boosted_sps=*/-2.0),
               std::invalid_argument);
  EXPECT_THROW(cp->set_alert("rtt", 10.0, /*boosted_sps=*/nan),
               std::invalid_argument);
  EXPECT_FALSE(cp->extractor_config("rtt").alert_enabled);
  cp->set_alert("rtt", 10.0, 20.0);
  EXPECT_TRUE(cp->extractor_config("rtt").alert_enabled);
}

TEST_F(ControlPlaneFixture, SetAlertConfiguresThresholdAndBoost) {
  make_cp();
  cp->set_alert("queue_occupancy", 30.0, 10.0);
  const auto& mc = cp->extractor_config("queue_occupancy");
  EXPECT_TRUE(mc.alert_enabled);
  EXPECT_DOUBLE_EQ(mc.alert_threshold, 30.0);
  EXPECT_EQ(mc.boosted_interval, units::milliseconds(100));
}

// The tentpole claim: a fifth metric is one register_extractor() call —
// it gets its own timer, reports, name-based configuration and alerts
// without touching the shared extraction logic.
TEST_F(ControlPlaneFixture, FifthMetricIsOneRegistration) {
  make_cp();
  ControlPlane::MetricExtractor volume;
  volume.name = "volume";
  volume.value_key = "volume_bytes";
  volume.read = [this](std::uint16_t slot, ControlPlane::FlowState&,
                       SimTime) {
    return static_cast<double>(program->bytes(slot));
  };
  MetricConfig config;
  config.interval = units::milliseconds(200);
  cp->register_extractor(std::move(volume), config);
  EXPECT_EQ(cp->extractor_count(), kPaperMetrics.size() + 1);
  cp->set_alert("volume", /*threshold=*/1.0);

  cp->start();
  stream(1000.0, units::seconds(2));
  sim.run_until(units::seconds(2));

  const auto reports = sink.of("volume");
  EXPECT_GT(reports.size(), 5u);
  EXPECT_TRUE(reports.back().contains("volume_bytes"));
  ASSERT_FALSE(cp->alerts().empty());
  bool extension_alert = false;
  for (const auto& alert : cp->alerts()) {
    extension_alert |= alert.metric_name == "volume";
  }
  EXPECT_TRUE(extension_alert);

  // Name-based configuration reaches the extension entry.
  cp->set_samples_per_second("volume", 100.0);
  EXPECT_EQ(cp->extractor_config("volume").interval,
            units::milliseconds(10));

  ControlPlane::MetricExtractor dup;
  dup.name = "volume";
  dup.read = [](std::uint16_t, ControlPlane::FlowState&, SimTime) {
    return 0.0;
  };
  EXPECT_THROW(cp->register_extractor(std::move(dup)),
               std::invalid_argument);
}

TEST_F(ControlPlaneFixture, LimitationReportsPiggybackOnThroughput) {
  make_cp();
  cp->start();
  stream(1000.0, units::seconds(2));
  sim.run_until(units::seconds(2));
  EXPECT_GT(sink.count("limitation"), 0u);
}

// The four paper metrics are registered by name alone, each with one
// config().metrics entry; any other name is an unknown metric.
TEST_F(ControlPlaneFixture, PaperMetricsAreRegisteredByName) {
  make_cp();
  EXPECT_EQ(cp->extractor_count(), kPaperMetrics.size());
  ASSERT_EQ(cp->config().metrics.size(), kPaperMetrics.size());
  for (std::string_view metric : kPaperMetrics) {
    EXPECT_TRUE(cp->has_extractor(metric)) << metric;
    EXPECT_EQ(cp->config().metrics.count(metric), 1u) << metric;
  }
  // "RTT" is Figure 6's spelling, which psconfig maps to "rtt".
  EXPECT_FALSE(cp->has_extractor("RTT"));
  try {
    cp->extractor_config("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown metric: bogus");
  }
  try {
    cp->unregister_extractor("rtt");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "cannot unregister builtin metric: rtt");
  }
}

// A config() snapshot carries every extractor's timer, extension rates
// included: a new control plane built from it reproduces them, while
// unregistering drops the entry so a re-registration starts from its
// own default.
TEST_F(ControlPlaneFixture, ConfigSnapshotCarriesExtensionRates) {
  make_cp();
  auto volume = [this]() {
    ControlPlane::MetricExtractor ex;
    ex.name = "volume";
    ex.value_key = "volume_bytes";
    ex.read = [this](std::uint16_t slot, ControlPlane::FlowState&, SimTime) {
      return static_cast<double>(program->bytes(slot));
    };
    return ex;
  };
  MetricConfig fallback;
  fallback.interval = units::milliseconds(200);
  cp->register_extractor(volume(), fallback);
  cp->set_samples_per_second("volume", 100.0);
  cp->set_samples_per_second("rtt", 4.0);

  sim::Simulation replay_sim;
  ControlPlane replay(replay_sim, *program, cp->config());
  replay.register_extractor(volume(), fallback);
  EXPECT_EQ(replay.extractor_config("volume").interval,
            units::milliseconds(10));
  EXPECT_EQ(replay.extractor_config("rtt").interval,
            units::milliseconds(250));

  cp->unregister_extractor("volume");
  EXPECT_EQ(cp->config().metrics.count("volume"), 0u);
  cp->register_extractor(volume(), fallback);
  EXPECT_EQ(cp->extractor_config("volume").interval,
            units::milliseconds(200));
}

// An extension unregistered before start() leaves a row without a
// config: start() must skip it, and only the live timers fire.
TEST_F(ControlPlaneFixture, ExtractorUnregisteredBeforeStartIsSkipped) {
  make_cp();
  ControlPlane::MetricExtractor ex;
  ex.name = "volume";
  ex.value_key = "volume_bytes";
  ex.read_switch = [](SimTime) { return 1.0; };
  cp->register_extractor(std::move(ex), MetricConfig{});
  cp->unregister_extractor("volume");
  cp->start();
  sim.run_until(units::seconds(2));
  EXPECT_EQ(cp->extractor_count(), kPaperMetrics.size());
  EXPECT_EQ(sink.count("volume"), 0u);
}

}  // namespace
}  // namespace p4s::cp
