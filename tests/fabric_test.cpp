// Monitoring-fabric tests: N MonitoredSwitch instances over one
// simulation and one report transport.
//
//   * Adding passive monitor sites must not perturb the measurement:
//     in a 3-switch fabric, switch 0's Report_v1 series stays byte
//     identical to the committed single-switch golden (fig9.reports.txt).
//   * Per-site conservation: with a faulty shared transport, every
//     site's report stream arrives complete and correctly tagged.
//   * The engine registry really is the definition of "every engine":
//     release_slot() reaches each registered engine, including ones
//     registered by an extension, and establishes slot_cleared().
#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "psonar/maddash.hpp"

namespace p4s {
namespace {

using core::MonitoredSwitchConfig;
using core::MonitoringSystem;
using core::MonitoringSystemConfig;
using core::TapPoint;
using units::seconds;

const std::string kGoldenReports =
    std::string(P4S_TRACE_DATA_DIR) + "/fig9.reports.txt";

struct Collector : cp::ReportSink {
  std::vector<std::string> lines;
  void on_report(const util::Json& report) override {
    lines.push_back(report.dump());
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// The golden-trace scenario (trace_golden_test.cpp), verbatim: scaled
// Figure 9, 2 Mbps bottleneck, seed 1, 2 samples/s, three transfers.
MonitoringSystemConfig golden_scenario() {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  return config;
}

void run_golden_workload(MonitoringSystem& system) {
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  system.add_transfer(2).start_at(seconds(5));
  system.run_until(seconds(9));
}

// Growing the fabric from one switch to three must leave the original
// site's measurement untouched: the extra monitors are passive taps on
// other ports, so switch 0's report series stays byte-identical to the
// committed single-switch golden.
TEST(Fabric, ThreeSwitchRunKeepsSiteZeroSeriesByteIdentical) {
  auto config = golden_scenario();
  config.switches = {
      MonitoredSwitchConfig{"", TapPoint::kCoreBottleneck},
      MonitoredSwitchConfig{"site-b", TapPoint::kWanExt0},
      MonitoredSwitchConfig{"site-c", TapPoint::kWanExt1},
  };
  MonitoringSystem system(config);
  ASSERT_EQ(system.switch_count(), 3u);

  Collector sites[3];
  for (std::size_t i = 0; i < 3; ++i) {
    system.monitored_switch(i).control_plane().set_sink(&sites[i]);
  }
  run_golden_workload(system);

  const auto golden = read_lines(kGoldenReports);
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(golden.size(), sites[0].lines.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i], sites[0].lines[i])
        << "switch-0 report " << i << " diverged from the golden";
  }

  // The extra sites measured their own taps and tagged their reports.
  for (std::size_t i = 1; i < 3; ++i) {
    ASSERT_FALSE(sites[i].lines.empty());
    const std::string& id = system.monitored_switch(i).id();
    for (const auto& line : sites[i].lines) {
      EXPECT_NE(line.find("\"switch_id\":\"" + id + "\""),
                std::string::npos)
          << line;
    }
  }
  // Switch 0 is untagged: the legacy report format, byte for byte.
  for (const auto& line : sites[0].lines) {
    EXPECT_EQ(line.find("switch_id"), std::string::npos) << line;
  }
}

// Per-site conservation over a faulty shared transport: every control
// plane's emitted stream must land in the archive exactly once, each
// document carrying its site's tag. Counters are read through
// fabric_stats() — the merge-barrier snapshot — so the same check is
// valid under the sharded parallel runtime, where per-site P4 counters
// are worker-owned and a direct read mid-flush could be torn.
void run_conservation_check(std::size_t parallel) {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  config.seed = 7;
  config.parallel = parallel;
  config.switches = {
      MonitoredSwitchConfig{"site-a", TapPoint::kCoreBottleneck},
      MonitoredSwitchConfig{"site-b", TapPoint::kWanExt0},
      MonitoredSwitchConfig{"site-c", TapPoint::kWanExt1},
  };
  config.transport.resilient = true;
  config.transport.sink.ack_timeout = units::milliseconds(100);
  config.transport.sink.backoff.base = units::milliseconds(20);
  config.transport.sink.backoff.max = units::milliseconds(500);
  config.transport.sink.health_interval = 0;
  MonitoringSystem system(config);

  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  auto& injector = system.fault_injector();
  injector.reset_at(seconds(3));
  injector.stall_at(seconds(5), units::milliseconds(800));
  injector.reset_at(seconds(7));
  system.start();
  auto& flow0 = system.add_transfer(0);
  flow0.start_at(seconds(1));
  flow0.stop_at(seconds(8));
  auto& flow1 = system.add_transfer(1);
  flow1.start_at(seconds(4));
  flow1.stop_at(seconds(8));
  // Quiesce the periodic reports, then run long enough for the wire and
  // retry queues to drain completely.
  system.simulation().at(seconds(11), [&system]() {
    system.psonar().psconfig().execute(
        "psconfig config-P4 --samples_per_second 0.01");
  });
  system.run_until(seconds(14));

  ASSERT_EQ(system.report_sink().health().queued, 0u);
  EXPECT_EQ(system.report_sink().reconnects(), 2u);

  // Count archived documents per site tag across all indices.
  std::map<std::string, std::uint64_t> archived_by_site;
  auto& archiver = system.psonar().archiver();
  std::uint64_t total_archived = 0;
  for (const auto& index : archiver.indices()) {
    for (const auto& doc : archiver.search(index)) {
      auto site = ps::Archiver::field_at(doc, "switch_id");
      ASSERT_TRUE(site.has_value()) << doc.dump();
      ++archived_by_site[site->as_string()];
      ++total_archived;
    }
  }

  const auto stats = system.fabric_stats();
  ASSERT_EQ(stats.sites.size(), system.switch_count());
  std::uint64_t total_emitted = 0;
  for (const auto& site : stats.sites) {
    ASSERT_GT(site.reports_emitted, 0u) << site.id;
    EXPECT_EQ(archived_by_site[site.id], site.reports_emitted)
        << "site " << site.id << " lost or duplicated reports";
    total_emitted += site.reports_emitted;
  }
  EXPECT_EQ(total_archived, total_emitted);
  EXPECT_EQ(stats.reports_emitted, total_emitted);

  // Mirror-pipeline conservation, exact per site: every copy mirrored by
  // the barrier reaches its P4 parser one TAP latency later, where it is
  // either processed or rejected.
  system.run_until(stats.at + system.config().tap_latency);
  const auto after_tap = system.fabric_stats();
  ASSERT_EQ(after_tap.sites.size(), stats.sites.size());
  for (std::size_t i = 0; i < stats.sites.size(); ++i) {
    const auto& site = after_tap.sites[i];
    EXPECT_EQ(site.processed + site.parse_errors, stats.sites[i].mirrored)
        << site.id;
  }

  // MaDDash renders the fabric as one grid row per site: every site's
  // tap observed at least one tracked flow.
  ps::MadDash maddash(archiver);
  const auto grid = maddash.site_grid(units::mbps(1), units::mbps(0));
  EXPECT_EQ(grid.rows.size(), 3u);
}

TEST(Fabric, PerSiteReportStreamsSurviveTransportFaults) {
  run_conservation_check(1);
}

// The identical scenario under the sharded runtime: the resilient
// transport's timing (reconnects, retries, ack seqs) and every per-site
// count must come out exactly as in the serial run.
TEST(Fabric, PerSiteConservationHoldsUnderParallelExecution) {
  run_conservation_check(4);
}

// ---------- Engine registry invariant (release_slot coverage) ----------

/// An extension engine with one dirty bit per slot.
struct MarkerEngine : telemetry::MetricEngine {
  std::array<bool, telemetry::kFlowSlots> dirty{};
  std::string_view name() const override { return "marker"; }
  void clear_slot(std::uint16_t slot) override { dirty[slot] = false; }
  bool slot_cleared(std::uint16_t slot) const override {
    return !dirty[slot];
  }
};

TEST(Fabric, ReleaseSlotClearsEveryRegisteredEngine) {
  sim::Simulation sim;
  telemetry::DataPlaneProgram::Config dp_config;
  dp_config.tracker.promotion_bytes = 1;
  telemetry::DataPlaneProgram program(dp_config);
  p4::P4Switch sw(sim, "dut");
  sw.load_program(program);

  MarkerEngine marker;
  program.register_engine(marker);

  // Drive a few distinct flows so several slots accumulate state in
  // every built-in engine.
  const auto src = net::ipv4(10, 0, 0, 10);
  std::uint32_t seq = 1000;
  for (int f = 0; f < 4; ++f) {
    const auto dst = net::ipv4(10, 1, 0, static_cast<std::uint8_t>(f + 1));
    for (int p = 0; p < 50; ++p) {
      net::Packet pkt = net::make_tcp_packet(
          src, dst, static_cast<std::uint16_t>(40000 + f), 5201, seq, 0,
          net::tcpflags::kAck, 1460, 1 << 16);
      pkt.ip.id = static_cast<std::uint16_t>(seq);
      seq += 1460;
      sim.run_until(sim.now() + units::microseconds(100));
      sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
      sw.on_mirrored(pkt, net::MirrorPoint::kEgress);
    }
  }

  // The registry holds the 7 built-in engines plus the extension.
  ASSERT_EQ(program.engines().size(), 8u);

  std::vector<std::uint16_t> occupied;
  for (std::uint16_t s = 0; s < telemetry::kFlowSlots; ++s) {
    if (program.tracker().occupied(s)) occupied.push_back(s);
  }
  ASSERT_GE(occupied.size(), 4u);

  for (const std::uint16_t slot : occupied) {
    marker.dirty[slot] = true;
    EXPECT_FALSE(program.slot_cleared(slot));
    program.release_slot(slot);
    // The program-level invariant...
    EXPECT_TRUE(program.slot_cleared(slot)) << "slot " << slot;
    // ...and each engine individually, by name.
    for (const telemetry::MetricEngine* engine : program.engines()) {
      EXPECT_TRUE(engine->slot_cleared(slot))
          << engine->name() << " left state in slot " << slot;
    }
  }
  // release reached the extension engine through the registry.
  for (const std::uint16_t slot : occupied) {
    EXPECT_FALSE(marker.dirty[slot]);
  }
}

}  // namespace
}  // namespace p4s
