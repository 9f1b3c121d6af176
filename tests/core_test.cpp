// Tests: the MonitoringSystem facade and the experiment recorder.
#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hpp"
#include "core/monitoring_system.hpp"
#include "core/svg_chart.hpp"

namespace p4s::core {
namespace {

MonitoringSystemConfig small_config() {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  return config;
}

TEST(MonitoringSystem, ConstructsAndWiresControlPlane) {
  MonitoringSystem system(small_config());
  // Control plane learned the monitored switch's parameters from the
  // topology.
  EXPECT_EQ(system.control_plane().config().bottleneck_bps,
            units::mbps(100));
  EXPECT_EQ(system.control_plane().config().core_buffer_bytes,
            system.topology().bottleneck_port->queue().capacity_bytes());
}

TEST(MonitoringSystem, TransferIsObservedEndToEnd) {
  MonitoringSystem system(small_config());
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(6));
  system.run_until(units::seconds(10));

  // The flow completed and was monitored passively.
  EXPECT_TRUE(flow.complete());
  ASSERT_EQ(system.control_plane().final_reports().size(), 1u);
  const auto& report = system.control_plane().final_reports()[0];
  EXPECT_EQ(net::to_string(report.flow.tuple.dst_ip), "10.1.0.10");
  EXPECT_GT(report.bytes, 10'000'000u);

  // Reports reached the perfSONAR archiver through Logstash.
  auto& archiver = system.psonar().archiver();
  EXPECT_GT(archiver.doc_count("p4sonar-throughput"), 3u);
  EXPECT_GT(archiver.doc_count("p4sonar-rtt"), 3u);
  EXPECT_EQ(archiver.doc_count("p4sonar-flow_final"), 1u);
  EXPECT_EQ(archiver.doc_count("p4sonar-flow_detected"), 1u);
}

TEST(MonitoringSystem, PsConfigDrivesControlPlane) {
  MonitoringSystem system(small_config());
  const auto result = system.psonar().psconfig().execute(
      "psconfig config-P4 --metric throughput --samples_per_second 10");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(system.control_plane().extractor_config("throughput").interval,
            units::milliseconds(100));
}

TEST(MonitoringSystem, AddTransferValidatesIndex) {
  MonitoringSystem system(small_config());
  EXPECT_THROW(system.add_transfer(3), std::out_of_range);
  EXPECT_THROW(system.add_transfer(-1), std::out_of_range);
}

TEST(MonitoringSystem, MeasuredRttMatchesPathRtt) {
  MonitoringSystem system(small_config());
  system.start();
  auto& flow = system.add_transfer(2);  // 100 ms base RTT
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(5));
  bool saw_flow = false;
  for (const auto& [slot, state] : system.control_plane().flows()) {
    (void)slot;
    saw_flow = true;
    // Data-plane RTT = base RTT + queueing; must be at least the base.
    EXPECT_GE(state.rtt_ns, units::milliseconds(99));
    EXPECT_LT(state.rtt_ns, units::milliseconds(400));
  }
  EXPECT_TRUE(saw_flow);
}

TEST(Recorder, SamplesAndSeries) {
  MonitoringSystem system(small_config());
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(units::seconds(1), units::milliseconds(500),
                 units::seconds(5));
  system.run_until(units::seconds(5));
  EXPECT_GE(recorder.samples().size(), 7u);
  const auto labels = recorder.labels();
  ASSERT_EQ(labels.size(), 1u);
  EXPECT_EQ(labels[0], "10.1.0.10");
  const auto series = recorder.series(&FlowSample::throughput_mbps);
  EXPECT_FALSE(series.at("10.1.0.10").empty());
}

TEST(Recorder, CsvOutputWellFormed) {
  MonitoringSystem system(small_config());
  system.start();
  auto& flow = system.add_transfer(1);
  flow.start_at(units::milliseconds(100));
  Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(units::seconds(1), units::seconds(1), units::seconds(4));
  system.run_until(units::seconds(4));
  std::ostringstream out;
  recorder.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("t_s,flow,throughput_mbps"), std::string::npos);
  EXPECT_NE(csv.find("10.2.0.10"), std::string::npos);
}

TEST(Recorder, PrintTableIncludesAllLabels) {
  MonitoringSystem system(small_config());
  system.start();
  auto& f0 = system.add_transfer(0);
  auto& f1 = system.add_transfer(1);
  f0.start_at(units::milliseconds(100));
  f1.start_at(units::milliseconds(100));
  Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(units::seconds(1), units::seconds(1), units::seconds(4));
  system.run_until(units::seconds(4));
  std::ostringstream out;
  recorder.print_table(out, "throughput", &FlowSample::throughput_mbps,
                       "Mbps");
  EXPECT_NE(out.str().find("10.1.0.10"), std::string::npos);
  EXPECT_NE(out.str().find("10.2.0.10"), std::string::npos);
}

TEST(Thin, KeepsRequestedRowCount) {
  std::vector<TimeSample> samples(100);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].t_s = static_cast<double>(i);
  }
  const auto thinned = thin(samples, 10);
  EXPECT_EQ(thinned.size(), 10u);
  EXPECT_DOUBLE_EQ(thinned[0].t_s, 0.0);
  const auto untouched = thin(samples, 200);
  EXPECT_EQ(untouched.size(), 100u);
}

TEST(SvgChart, RendersValidDocument) {
  Chart chart;
  chart.title = "test <chart> & more";
  chart.y_label = "Mbps";
  chart.series.push_back(
      ChartSeries{"flow-a", {{0.0, 1.0}, {1.0, 5.0}, {2.0, 3.0}}});
  chart.series.push_back(ChartSeries{"flow-b", {{0.0, 2.0}, {2.0, 4.0}}});
  std::ostringstream out;
  write_svg(chart, out);
  const std::string svg = out.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_EQ(svg.find("<chart>"), std::string::npos);  // escaped
  EXPECT_NE(svg.find("&lt;chart&gt;"), std::string::npos);
  EXPECT_NE(svg.find("flow-a"), std::string::npos);
  // Two series -> two polylines.
  std::size_t polylines = 0, pos = 0;
  while ((pos = svg.find("<polyline", pos)) != std::string::npos) {
    ++polylines;
    ++pos;
  }
  EXPECT_EQ(polylines, 2u);
}

TEST(SvgChart, EmptySeriesStillValid) {
  Chart chart;
  chart.title = "empty";
  std::ostringstream out;
  write_svg(chart, out);
  EXPECT_NE(out.str().find("</svg>"), std::string::npos);
}

TEST(SvgChart, Fig9PanelsFromRecorder) {
  MonitoringSystem system(small_config());
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(units::seconds(1), units::seconds(1), units::seconds(4));
  system.run_until(units::seconds(4));
  std::ostringstream out;
  write_fig9_panels(recorder, out);
  const std::string svg = out.str();
  EXPECT_NE(svg.find("per-flow throughput"), std::string::npos);
  EXPECT_NE(svg.find("queue occupancy"), std::string::npos);
  EXPECT_NE(svg.find("10.1.0.10"), std::string::npos);
}

TEST(MonitoringSystem, DeterministicAcrossRuns) {
  auto run_once = [] {
    MonitoringSystem system(small_config());
    system.start();
    auto& flow = system.add_transfer(0);
    flow.start_at(units::milliseconds(100));
    flow.stop_at(units::seconds(4));
    system.run_until(units::seconds(6));
    return flow.sender().stats().segments_sent;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace p4s::core
