// Optional-engine regression pins: the report stream of a fixed-seed run
// with every optional engine enabled (switch-wide RTT / IAT / queue-delay
// histograms, the spin-bit RTT engine and the NIDS feature engine).
//
//   1. The live run must reproduce the committed report stream byte for
//      byte — the default-path goldens never see these engines, so this
//      is what pins their dispatch and export across refactors.
//   2. Replaying the same run's capture through trace::ReplayPipeline,
//      with the same program config and the live control plane's
//      config() snapshot alone, must reproduce the live engine reports
//      byte for byte: a replayed site is assembled exactly like a live
//      one, and the snapshot carries every extractor's rate.
//
// Regenerate the committed stream after an intentional behavior change:
//   P4S_UPDATE_GOLDEN=1 ./build/tests/engines_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/monitoring_system.hpp"
#include "trace/trace_replayer.hpp"

using namespace p4s;
using units::seconds;

namespace {

const std::string kGoldenReports =
    std::string(P4S_TRACE_DATA_DIR) + "/engines.reports.txt";

bool update_golden() { return std::getenv("P4S_UPDATE_GOLDEN") != nullptr; }

struct Collector : cp::ReportSink {
  std::vector<std::string> lines;
  void on_report(const util::Json& report) override {
    lines.push_back(report.dump());
  }
};

constexpr SimTime kHorizon = seconds(9);

// Per-metric extraction rates, set by name on the live control plane
// through psconfig: the paper metrics at 2/s, the engines' extractors at
// rates of their own.
const std::vector<std::pair<std::string, double>> kRates = {
    {"rtt_histogram", 4.0},
    {"iat_histogram", 2.0},
    {"queue_delay_histogram", 1.0},
    {"quic_rtt", 2.0},
};

telemetry::DataPlaneProgram::Config program_config() {
  telemetry::DataPlaneProgram::Config program;
  for (const auto metric : {telemetry::HistogramEngineConfig::Metric::kRtt,
                            telemetry::HistogramEngineConfig::Metric::kIat,
                            telemetry::HistogramEngineConfig::Metric::
                                kQueueDelay}) {
    telemetry::HistogramEngineConfig hc;
    hc.metric = metric;
    program.histograms.push_back(hc);
  }
  program.spin_rtt.emplace();
  program.nids.emplace();
  return program;
}

struct LiveRun {
  std::vector<std::string> reports;
  cp::ControlPlaneConfig control;  // as filled by the live system
};

// Scaled run: 2 Mbps bottleneck, two TCP transfers and one QUIC transfer.
LiveRun run_live(const std::string& capture_base) {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  config.program = program_config();
  config.trace.capture = true;
  config.trace.path_base = capture_base;
  core::MonitoringSystem system(config);
  Collector collector;
  system.control_plane().set_sink(&collector);
  auto& psconfig = system.psonar().psconfig();
  psconfig.execute("psconfig config-P4 --samples_per_second 2");
  for (const auto& [metric, sps] : kRates) {
    psconfig.execute("psconfig config-P4 --metric " + metric +
                     " --samples_per_second " + std::to_string(sps));
  }
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  auto& quic = system.add_quic_transfer(2);
  quic.start_at(seconds(3));
  quic.stop_at(seconds(7));
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

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::istringstream in(read_file(path));
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void compare_lines(const std::vector<std::string>& expected,
                   const std::vector<std::string>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << "report " << i << " diverged";
  }
}

// The lines the optional engines produce (extractor reports and digests).
std::vector<std::string> engine_lines(const std::vector<std::string>& lines) {
  static const std::set<std::string> kEngineReports = {
      "rtt_histogram", "iat_histogram", "queue_delay_histogram",
      "quic_rtt",      "nids_features", "nids_alert"};
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    const util::Json doc = util::Json::parse(line);
    if (kEngineReports.count(doc.at("report").as_string()) != 0) {
      out.push_back(line);
    }
  }
  return out;
}

TEST(EnginesGolden, LiveReportStreamMatchesCommittedGolden) {
  const LiveRun live = run_live(::testing::TempDir() + "engines_golden_live");
  ASSERT_FALSE(live.reports.empty());
  // Every optional engine contributed to the stream.
  std::set<std::string> kinds;
  for (const std::string& line : engine_lines(live.reports)) {
    kinds.insert(util::Json::parse(line).at("report").as_string());
  }
  for (const char* kind : {"rtt_histogram", "iat_histogram",
                           "queue_delay_histogram", "quic_rtt",
                           "nids_features"}) {
    EXPECT_EQ(kinds.count(kind), 1u) << kind;
  }

  if (update_golden()) {
    std::ofstream out(kGoldenReports, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenReports;
    for (const auto& line : live.reports) out << line << "\n";
    GTEST_SKIP() << "regenerated " << kGoldenReports;
  }
  compare_lines(read_lines(kGoldenReports), live.reports);
}

TEST(EnginesGolden, ReplayFromConfigSnapshotAloneReproducesEngineReports) {
  const std::string base = ::testing::TempDir() + "engines_replay_parity";
  const LiveRun live = run_live(base);
  const std::vector<std::string> expected = engine_lines(live.reports);
  ASSERT_FALSE(expected.empty());

  auto trace = trace::TraceReplayer::from_files(
      trace::TraceCapture::port_path(base, net::MirrorPoint::kIngress),
      trace::TraceCapture::port_path(base, net::MirrorPoint::kEgress));
  trace::ReplayPipeline::Config config;
  config.program = program_config();
  config.control = live.control;
  config.seed = 1;
  trace::ReplayPipeline pipeline(config);
  for (const auto& [metric, sps] : kRates) {
    ASSERT_TRUE(pipeline.control_plane().has_extractor(metric))
        << "the replayed site has no '" << metric << "' extractor";
    EXPECT_EQ(pipeline.control_plane().extractor_config(metric).interval,
              units::seconds_f(1.0 / sps))
        << metric;
  }
  pipeline.run(trace, kHorizon);
  compare_lines(expected, engine_lines(pipeline.report_lines()));
}

}  // namespace
