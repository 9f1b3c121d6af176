// Golden-trace regression (the trace subsystem's reason to exist):
//
//   1. A fixed-seed Fig. 9-style scenario, captured at the TAP mirror
//      points, must reproduce the committed pcap files byte for byte —
//      pinning the wire codec, TAP model, and pcap writer.
//   2. Replaying the committed pcaps through a fresh P4 switch + control
//      plane (no TCP simulator) must reproduce the committed Report_v1
//      series byte for byte — pinning the parser, the telemetry engines,
//      and the control plane against the traffic that produced them.
//   3. Replay into a capture tee must re-capture the committed
//      pcaps byte for byte — a replayed frame reaches its sink exactly
//      as the TAP delivered it live: timestamp, bytes and wire length.
//
// Regenerate the committed artifacts after an intentional behavior change:
//   P4S_UPDATE_GOLDEN=1 ./build/tests/trace_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "trace/trace_replayer.hpp"

using namespace p4s;
using units::seconds;

namespace {

const std::string kDataDir = P4S_TRACE_DATA_DIR;
const std::string kGoldenBase = kDataDir + "/fig9";
const std::string kGoldenReports = kDataDir + "/fig9.reports.txt";

bool update_golden() { return std::getenv("P4S_UPDATE_GOLDEN") != nullptr; }

struct Collector : cp::ReportSink {
  std::vector<std::string> lines;
  void on_report(const util::Json& report) override {
    lines.push_back(report.dump());
  }
};

// Scaled-down Figure 9: three TCP transfers over a shared bottleneck,
// the third joining mid-run. 2 Mbps keeps the committed pcaps small
// while preserving the contention/backoff shape.
core::MonitoringSystemConfig scenario_config() {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  return config;
}

constexpr const char* kPsconfigCmd =
    "psconfig config-P4 --samples_per_second 2";
constexpr SimTime kHorizon = seconds(9);

struct LiveRun {
  std::vector<std::string> reports;
  cp::ControlPlaneConfig control;  // as filled by the live system
};

LiveRun run_live_captured(const std::string& path_base) {
  auto config = scenario_config();
  config.trace.capture = true;
  config.trace.path_base = path_base;
  core::MonitoringSystem system(config);
  Collector collector;
  system.control_plane().set_sink(&collector);
  system.psonar().psconfig().execute(kPsconfigCmd);
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  system.add_transfer(2).start_at(seconds(5));
  system.run_until(kHorizon);
  system.trace_capture().flush();
  return {std::move(collector.lines), system.control_plane().config()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path
                         << " (regenerate with P4S_UPDATE_GOLDEN=1)";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string port_file(const std::string& base, net::MirrorPoint point) {
  return trace::TraceCapture::port_path(base, point);
}

void compare_lines(const std::vector<std::string>& expected,
                   const std::vector<std::string>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "report " << i << " diverged";
  }
}

TEST(TraceGolden, CaptureReproducesCommittedPcapsByteForByte) {
  const std::string base = ::testing::TempDir() + "trace_golden_live";
  const LiveRun live = run_live_captured(base);
  ASSERT_FALSE(live.reports.empty());

  const std::string in_bytes =
      read_file(port_file(base, net::MirrorPoint::kIngress));
  const std::string eg_bytes =
      read_file(port_file(base, net::MirrorPoint::kEgress));
  std::string report_text;
  for (const auto& line : live.reports) report_text += line + "\n";

  if (update_golden()) {
    write_file(port_file(kGoldenBase, net::MirrorPoint::kIngress), in_bytes);
    write_file(port_file(kGoldenBase, net::MirrorPoint::kEgress), eg_bytes);
    write_file(kGoldenReports, report_text);
    GTEST_SKIP() << "golden artifacts regenerated under " << kDataDir;
  }

  const std::string golden_in =
      read_file(port_file(kGoldenBase, net::MirrorPoint::kIngress));
  const std::string golden_eg =
      read_file(port_file(kGoldenBase, net::MirrorPoint::kEgress));
  ASSERT_EQ(golden_in.size(), in_bytes.size())
      << "ingress capture size diverged from the committed golden";
  ASSERT_EQ(golden_eg.size(), eg_bytes.size())
      << "egress capture size diverged from the committed golden";
  EXPECT_TRUE(golden_in == in_bytes)
      << "ingress capture bytes diverged from the committed golden";
  EXPECT_TRUE(golden_eg == eg_bytes)
      << "egress capture bytes diverged from the committed golden";
  compare_lines(read_lines(kGoldenReports), live.reports);
}

TEST(TraceGolden, ReplayOfCommittedTraceReproducesReportSeries) {
  if (update_golden()) {
    GTEST_SKIP() << "golden regeneration run";
  }
  // The replay control plane gets the same configuration the live system
  // derives from its topology (buffer size, bottleneck rate, extraction
  // intervals) — taken from a live system instance, not hand-copied.
  cp::ControlPlaneConfig control;
  {
    core::MonitoringSystem reference(scenario_config());
    reference.psonar().psconfig().execute(kPsconfigCmd);
    control = reference.control_plane().config();
  }

  auto trace = trace::TraceReplayer::from_files(
      port_file(kGoldenBase, net::MirrorPoint::kIngress),
      port_file(kGoldenBase, net::MirrorPoint::kEgress));
  const auto stats = trace.analyze();
  ASSERT_GT(stats.frames, 0u);
  EXPECT_EQ(stats.non_ipv4, 0u);     // we only produce IPv4
  EXPECT_EQ(stats.undecodable, 0u);  // and every frame decodes

  trace::ReplayPipeline::Config config;
  config.control = control;
  config.seed = 1;
  trace::ReplayPipeline pipeline(config);
  pipeline.run(trace, kHorizon);

  EXPECT_EQ(pipeline.p4_switch().processed_pkts(), stats.frames);
  EXPECT_EQ(pipeline.p4_switch().parse_errors(), 0u);
  compare_lines(read_lines(kGoldenReports), pipeline.report_lines());
}

TEST(TraceGolden, PacedReplayRecapturesCommittedPcapsByteForByte) {
  if (update_golden()) {
    GTEST_SKIP() << "golden regeneration run";
  }
  const std::string golden_in =
      read_file(port_file(kGoldenBase, net::MirrorPoint::kIngress));
  const std::string golden_eg =
      read_file(port_file(kGoldenBase, net::MirrorPoint::kEgress));
  auto trace = trace::TraceReplayer::from_files(
      port_file(kGoldenBase, net::MirrorPoint::kIngress),
      port_file(kGoldenBase, net::MirrorPoint::kEgress));

  sim::Simulation sim;
  p4::P4Switch sw(sim, "recapture");
  std::ostringstream ingress, egress;
  trace::TraceCapture capture(sim, sw, ingress, egress);
  trace.replay(sim, capture);
  capture.flush();

  EXPECT_EQ(capture.captured_total(), trace.frames().size());
  EXPECT_EQ(sw.processed_pkts(), trace.frames().size());
  ASSERT_EQ(golden_in.size(), ingress.str().size());
  ASSERT_EQ(golden_eg.size(), egress.str().size());
  EXPECT_TRUE(golden_in == ingress.str())
      << "re-captured ingress bytes diverged from the committed golden";
  EXPECT_TRUE(golden_eg == egress.str())
      << "re-captured egress bytes diverged from the committed golden";
}

}  // namespace
