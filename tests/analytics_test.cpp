// Tests: trace analytics (NetSage-style trends / top talkers,
// OnTimeDetect-style anomaly detection) and the control plane's
// terminated-flow percentile summaries.
#include <gtest/gtest.h>

#include "core/monitoring_system.hpp"
#include "psonar/analytics.hpp"

namespace p4s::ps {
namespace {

util::Json throughput_doc(const char* dst, std::int64_t ts, double bps) {
  util::Json j = util::Json::object();
  j["report"] = "throughput";
  j["ts_ns"] = ts;
  j["throughput_bps"] = bps;
  j["flow"] = util::JsonObject{{"dst_ip", util::Json(dst)}};
  return j;
}

util::Json final_doc(const char* dst, std::int64_t bytes, double retx_pct) {
  util::Json j = util::Json::object();
  j["report"] = "flow_final";
  j["ts_ns"] = 1;
  j["bytes"] = bytes;
  j["retransmission_pct"] = retx_pct;
  j["flow"] = util::JsonObject{{"dst_ip", util::Json(dst)}};
  return j;
}

TEST(Analytics, ThroughputTrendBucketsAndAverages) {
  Archiver archiver;
  // Two buckets of 1 s; second bucket has two samples.
  archiver.index("p4sonar-throughput",
                 throughput_doc("10.1.0.10", 100'000'000, 10e6));
  archiver.index("p4sonar-throughput",
                 throughput_doc("10.1.0.10", 1'200'000'000, 20e6));
  archiver.index("p4sonar-throughput",
                 throughput_doc("10.1.0.10", 1'700'000'000, 40e6));
  archiver.index("p4sonar-throughput",
                 throughput_doc("10.9.9.9", 100'000'000, 999e6));  // other
  Analytics analytics(archiver);
  const auto trend =
      analytics.throughput_trend("10.1.0.10", units::seconds(1));
  ASSERT_EQ(trend.size(), 2u);
  EXPECT_EQ(trend[0].start, 0u);
  EXPECT_DOUBLE_EQ(trend[0].mean_throughput_bps, 10e6);
  EXPECT_EQ(trend[1].start, units::seconds(1));
  EXPECT_DOUBLE_EQ(trend[1].mean_throughput_bps, 30e6);
  EXPECT_EQ(trend[1].samples, 2u);
}

TEST(Analytics, TopTalkersRankedByBytes) {
  Archiver archiver;
  archiver.index("p4sonar-flow_final", final_doc("10.1.0.10", 1000, 1.0));
  archiver.index("p4sonar-flow_final", final_doc("10.2.0.10", 5000, 0.5));
  archiver.index("p4sonar-flow_final", final_doc("10.1.0.10", 3000, 2.0));
  Analytics analytics(archiver);
  const auto talkers = analytics.top_talkers();
  ASSERT_EQ(talkers.size(), 2u);
  EXPECT_EQ(talkers[0].dst_ip, "10.2.0.10");
  EXPECT_EQ(talkers[0].bytes, 5000u);
  EXPECT_EQ(talkers[1].dst_ip, "10.1.0.10");
  EXPECT_EQ(talkers[1].bytes, 4000u);
  EXPECT_EQ(talkers[1].flows, 2u);
  // Bytes-weighted retx: (1000*1 + 3000*2)/4000 = 1.75.
  EXPECT_NEAR(talkers[1].retransmission_pct, 1.75, 1e-9);
}

TEST(Analytics, TopTalkersLimit) {
  Archiver archiver;
  for (int i = 0; i < 5; ++i) {
    const std::string dst = "10.0.0." + std::to_string(i);
    archiver.index("p4sonar-flow_final",
                   final_doc(dst.c_str(), 1000 * (i + 1), 0.0));
  }
  Analytics analytics(archiver);
  EXPECT_EQ(analytics.top_talkers(3).size(), 3u);
}

TEST(Analytics, AnomalyDetectionFlagsDipAndSpike) {
  Archiver archiver;
  // 40 steady samples at ~100 Mbps with small jitter, a dip at i=20,
  // a spike at i=30.
  for (int i = 0; i < 40; ++i) {
    double v = 100e6 + (i % 2 ? 2e6 : -2e6);
    if (i == 20) v = 20e6;   // dip
    if (i == 30) v = 260e6;  // spike
    archiver.index("p4sonar-throughput",
                   throughput_doc("10.1.0.10", i, v));
  }
  Analytics analytics(archiver);
  const auto anomalies =
      analytics.detect_anomalies("p4sonar-throughput", "throughput_bps");
  ASSERT_EQ(anomalies.size(), 2u);
  EXPECT_EQ(anomalies[0].at, 20u);
  EXPECT_LT(anomalies[0].value, anomalies[0].expected);
  EXPECT_EQ(anomalies[1].at, 30u);
  EXPECT_GT(anomalies[1].value, anomalies[1].expected);
  EXPECT_GT(anomalies[0].deviation, 1.0);
}

TEST(Analytics, AnomalyDetectionQuietOnSteadySeries) {
  Archiver archiver;
  for (int i = 0; i < 50; ++i) {
    archiver.index("p4sonar-throughput",
                   throughput_doc("10.1.0.10", i,
                                  100e6 + (i % 3) * 1e6));
  }
  Analytics analytics(archiver);
  EXPECT_TRUE(analytics
                  .detect_anomalies("p4sonar-throughput", "throughput_bps")
                  .empty());
}

TEST(Analytics, AnomalyWarmupSuppressesEarlyPoints) {
  Archiver archiver;
  archiver.index("p4sonar-throughput", throughput_doc("d", 0, 100e6));
  archiver.index("p4sonar-throughput", throughput_doc("d", 1, 5e6));
  Analytics analytics(archiver);
  EXPECT_TRUE(analytics
                  .detect_anomalies("p4sonar-throughput", "throughput_bps")
                  .empty());
}

// Archived documents are untrusted. A document with a wrong-typed or
// out-of-range field is skipped, so every view over good documents plus
// malformed ones equals the view over the good documents alone.
TEST(Analytics, MalformedDocumentsAreSkipped) {
  Archiver good;
  Archiver mixed;
  const auto both = [&](const char* index, const util::Json& doc) {
    good.index(index, doc);
    mixed.index(index, doc);
  };
  std::vector<util::Json> bad_samples;
  for (const util::Json& ts :
       {util::Json("late"), util::Json(1e30), util::Json(-5)}) {
    util::Json doc = throughput_doc("10.1.0.10", 0, 500e6);
    doc["ts_ns"] = ts;
    bad_samples.push_back(std::move(doc));
  }
  std::vector<util::Json> bad_finals(5, final_doc("10.1.0.10", 1, 90.0));
  bad_finals[0]["flow"]["dst_ip"] = 7;
  bad_finals[1]["bytes"] = "many";
  bad_finals[2]["bytes"] = 1e30;
  bad_finals[3]["bytes"] = -1;
  bad_finals[4]["retransmission_pct"] = "high";
  for (int i = 0; i < 40; ++i) {
    const double v = i == 20 ? 20e6 : 100e6 + (i % 2 ? 2e6 : -2e6);
    both("p4sonar-throughput",
         throughput_doc("10.1.0.10", std::int64_t{i} * 100'000'000, v));
    if (i % 10 == 5) {
      for (const auto& doc : bad_samples) {
        mixed.index("p4sonar-throughput", doc);
      }
    }
  }
  for (int i = 0; i < 4; ++i) {
    const std::string dst = "10.0.0." + std::to_string(i % 2);
    both("p4sonar-flow_final", final_doc(dst.c_str(), 1000 * (i + 1), i));
    mixed.index("p4sonar-flow_final", bad_finals[i]);
  }
  mixed.index("p4sonar-flow_final", bad_finals[4]);

  const Analytics expected(good);
  const Analytics actual(mixed);
  const auto want_trend =
      expected.throughput_trend("10.1.0.10", units::seconds(1));
  const auto got_trend =
      actual.throughput_trend("10.1.0.10", units::seconds(1));
  ASSERT_EQ(want_trend.size(), 4u);
  ASSERT_EQ(got_trend.size(), want_trend.size());
  for (std::size_t i = 0; i < want_trend.size(); ++i) {
    EXPECT_EQ(got_trend[i].start, want_trend[i].start);
    EXPECT_EQ(got_trend[i].samples, want_trend[i].samples);
    EXPECT_EQ(got_trend[i].mean_throughput_bps,
              want_trend[i].mean_throughput_bps);
  }

  const auto want_talkers = expected.top_talkers();
  const auto got_talkers = actual.top_talkers();
  ASSERT_EQ(want_talkers.size(), 2u);
  ASSERT_EQ(got_talkers.size(), want_talkers.size());
  for (std::size_t i = 0; i < want_talkers.size(); ++i) {
    EXPECT_EQ(got_talkers[i].dst_ip, want_talkers[i].dst_ip);
    EXPECT_EQ(got_talkers[i].bytes, want_talkers[i].bytes);
    EXPECT_EQ(got_talkers[i].flows, want_talkers[i].flows);
    EXPECT_EQ(got_talkers[i].retransmission_pct,
              want_talkers[i].retransmission_pct);
  }

  const auto want_anomalies =
      expected.detect_anomalies("p4sonar-throughput", "throughput_bps");
  const auto got_anomalies =
      actual.detect_anomalies("p4sonar-throughput", "throughput_bps");
  ASSERT_EQ(want_anomalies.size(), 1u);
  ASSERT_EQ(got_anomalies.size(), want_anomalies.size());
  EXPECT_EQ(got_anomalies[0].at, want_anomalies[0].at);
  EXPECT_EQ(got_anomalies[0].value, want_anomalies[0].value);
  EXPECT_EQ(got_anomalies[0].expected, want_anomalies[0].expected);
  EXPECT_EQ(got_anomalies[0].deviation, want_anomalies[0].deviation);
}

TEST(Analytics, EndToEndAnomalyOnInducedDegradation) {
  // Full-system: a transfer runs cleanly, then heavy loss is injected
  // mid-flow; the archived per-flow throughput series must contain a
  // detectable anomaly near the onset.
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  core::MonitoringSystem system(config);
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system.simulation().at(units::seconds(25), [&]() {
    system.topology().ext_dtn_links[0].reverse_link->set_loss_rate(0.02);
  });
  system.run_until(units::seconds(40));

  Analytics analytics(system.psonar().archiver());
  Archiver::Query query;
  query.range_field = "ts_ns";
  query.range_min = static_cast<double>(units::seconds(10));
  const auto anomalies = analytics.detect_anomalies(
      "p4sonar-throughput", "throughput_bps", query);
  ASSERT_FALSE(anomalies.empty());
  // TCP's own loss-epoch dips may flag earlier (they are real anomalies
  // too); the induced degradation must appear as a downward anomaly
  // after its onset at t=25 s.
  bool found_post_onset_dip = false;
  for (const auto& a : anomalies) {
    if (a.at > units::seconds(25) && a.value < a.expected) {
      found_post_onset_dip = true;
      break;
    }
  }
  EXPECT_TRUE(found_post_onset_dip);
}

TEST(ControlPlane, FinalReportCarriesPercentiles) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  core::MonitoringSystem system(config);
  system.psonar().psconfig().execute(
      "psconfig config-P4 --metric RTT --samples_per_second 10");
  system.start();
  auto& flow = system.add_transfer(2);  // 100 ms base RTT
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(8));
  system.run_until(units::seconds(12));
  ASSERT_EQ(system.control_plane().final_reports().size(), 1u);
  const auto& report = system.control_plane().final_reports()[0];
  EXPECT_GE(report.rtt_p50_ms, 99.0);
  EXPECT_GE(report.rtt_p95_ms, report.rtt_p50_ms);
  EXPECT_GE(report.rtt_p99_ms, report.rtt_p95_ms);
  EXPECT_GE(report.occupancy_p95_pct, 0.0);
  // Archived document carries the same fields.
  const auto docs =
      system.psonar().archiver().search("p4sonar-flow_final");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_NEAR(docs[0].at("rtt_p95_ms").as_double(), report.rtt_p95_ms,
              1e-9);
}

}  // namespace
}  // namespace p4s::ps
