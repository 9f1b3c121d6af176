// Scenario-level integration tests: the paper's use cases verified end to
// end against ground truth the simulator knows (the telemetry must agree
// with what the TCP stacks actually did).
#include <gtest/gtest.h>

#include "core/monitoring_system.hpp"
#include "net/impairment.hpp"

namespace p4s {
namespace {

using core::MonitoringSystem;
using core::MonitoringSystemConfig;

MonitoringSystemConfig base_config() {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(100);
  return config;
}

TEST(Integration, PassiveByteCountMatchesGroundTruth) {
  MonitoringSystemConfig config = base_config();
  config.program.tracker.promotion_bytes = 1;  // count from packet one
  MonitoringSystem system(config);
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(5));
  system.run_until(units::seconds(9));
  ASSERT_EQ(system.control_plane().final_reports().size(), 1u);
  const auto& report = system.control_plane().final_reports()[0];
  // Data plane counts IP total_len (payload + 40 B headers) of every
  // data-bearing packet the sender emitted (including retransmissions).
  const auto& sent = flow.sender().stats();
  const std::uint64_t expected =
      sent.bytes_sent + 40ULL * sent.segments_sent;
  EXPECT_NEAR(static_cast<double>(report.bytes),
              static_cast<double>(expected),
              static_cast<double>(expected) * 0.001);
}

TEST(Integration, RetransmissionCountMatchesSender) {
  MonitoringSystemConfig config = base_config();
  MonitoringSystem system(config);
  // Induce loss so retransmissions occur.
  system.topology().ext_dtn_links[0].reverse_link->set_loss_rate(0.002);
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(8));
  system.run_until(units::seconds(14));
  ASSERT_EQ(system.control_plane().final_reports().size(), 1u);
  const auto& report = system.control_plane().final_reports()[0];
  const std::uint64_t truth = flow.sender().stats().retransmitted_segments;
  EXPECT_GT(truth, 0u);
  // Algorithm 1 counts sequence regressions: every retransmitted segment
  // that reaches the TAP is one regression. Mirror-side loss can't happen
  // (TAPs are lossless), so the counts match except for retransmissions
  // dropped before the core switch — allow a small slack.
  EXPECT_GE(report.retransmissions, truth * 9 / 10);
  EXPECT_LE(report.retransmissions, truth);
}

TEST(Integration, MeasuredRttTracksQueueDelay) {
  MonitoringSystem system(base_config());
  system.start();
  auto& flow = system.add_transfer(1);  // 75 ms base RTT
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(6));
  const auto& flows = system.control_plane().flows();
  ASSERT_EQ(flows.size(), 1u);
  const auto& state = flows.begin()->second;
  const SimTime sender_srtt = flow.sender().rtt().srtt();
  // Switch-measured RTT only covers switch->receiver->switch; it must be
  // within the sender's smoothed RTT and above the receiver-side base.
  EXPECT_GT(state.rtt_ns, units::milliseconds(70));
  EXPECT_LT(state.rtt_ns, sender_srtt + units::milliseconds(30));
}

TEST(Integration, ReceiverLimitedFlowClassifiedEndpoint) {
  MonitoringSystem system(base_config());
  system.start();
  tcp::TcpFlow::Config fc;
  fc.receiver.buffer_bytes =
      units::bdp_bytes(units::mbps(5), units::milliseconds(75));
  auto& flow = system.add_transfer(1, fc);
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(8));
  const auto& flows = system.control_plane().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.begin()->second.verdict,
            telemetry::LimitVerdict::kEndpointLimited);
}

TEST(Integration, SenderLimitedFlowClassifiedEndpoint) {
  MonitoringSystem system(base_config());
  system.start();
  tcp::TcpFlow::Config fc;
  fc.sender.rate_limit_bps = units::mbps(5);
  auto& flow = system.add_transfer(2, fc);
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(8));
  const auto& flows = system.control_plane().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.begin()->second.verdict,
            telemetry::LimitVerdict::kEndpointLimited);
}

TEST(Integration, LossLimitedFlowClassifiedNetwork) {
  MonitoringSystem system(base_config());
  system.topology().ext_dtn_links[0].reverse_link->set_loss_rate(0.001);
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  system.run_until(units::seconds(10));
  const auto& flows = system.control_plane().flows();
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows.begin()->second.verdict,
            telemetry::LimitVerdict::kNetworkLimited);
}

TEST(Integration, SmallBufferProducesMicroburstReports) {
  MonitoringSystemConfig config = base_config();
  config.topology.core_buffer_bytes =
      units::bdp_bytes(units::mbps(100), units::milliseconds(100)) / 4;
  const double drain_ns = static_cast<double>(
                              config.topology.core_buffer_bytes) *
                          8e9 / 100e6;
  config.program.queue.burst_threshold_ns =
      static_cast<SimTime>(drain_ns * 0.5);
  config.program.queue.burst_exit_ns = static_cast<SimTime>(drain_ns * 0.25);
  MonitoringSystem system(config);
  system.start();
  auto& f1 = system.add_transfer(0);
  auto& f2 = system.add_transfer(1);
  f1.start_at(units::milliseconds(100));
  f2.start_at(units::seconds(5));  // slow-start burst into a small buffer
  system.run_until(units::seconds(12));
  EXPECT_FALSE(system.control_plane().microbursts().empty());
  for (const auto& d : system.control_plane().microbursts()) {
    EXPECT_GT(d.duration_ns, 0u);
    EXPECT_GE(d.peak_queue_delay_ns,
              system.config().program.queue.burst_threshold_ns);
  }
  EXPECT_GT(system.psonar().archiver().doc_count("p4sonar-microburst"), 0u);
}

TEST(Integration, QueueOccupancyReflectsActualQueue) {
  MonitoringSystem system(base_config());
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  double max_reported = 0.0;
  system.simulation().every(
      units::seconds(1), units::milliseconds(200), [&]() {
        for (const auto& [slot, state] :
             system.control_plane().flows()) {
          (void)slot;
          max_reported = std::max(max_reported,
                                  state.queue_occupancy_pct);
        }
        return system.simulation().now() < units::seconds(8);
      });
  system.run_until(units::seconds(8));
  // A single CUBIC flow fills a 1-BDP buffer: occupancy must have been
  // reported well above zero and below ~110% (drain-time formula).
  EXPECT_GT(max_reported, 10.0);
  EXPECT_LT(max_reported, 115.0);
}

TEST(Integration, ActiveAndPassiveMeasurementsAgree) {
  // The regular perfSONAR throughput test and the P4 system observe the
  // same path: their throughput figures must be consistent.
  MonitoringSystem system(base_config());
  system.start();
  auto& node = system.psonar();
  ps::PScheduler::ThroughputTask task;
  task.start = units::seconds(1);
  task.duration = units::seconds(6);
  node.scheduler().schedule_throughput(*system.topology().psonar_internal,
                                       *system.topology().psonar_ext[0],
                                       task);
  system.run_until(units::seconds(12));
  ASSERT_EQ(node.scheduler().throughput_results().size(), 1u);
  const double active = node.scheduler().throughput_results()[0]
                            .avg_throughput_bps;
  // The P4 side saw the test's own flow too (it crosses the TAPs): its
  // terminated-flow report must show a consistent lifetime average.
  const auto finals = node.archiver().search("p4sonar-flow_final");
  ASSERT_EQ(finals.size(), 1u);
  const double passive =
      finals[0].at("avg_throughput_bps").as_double();
  EXPECT_NEAR(passive, active, active * 0.3);
}

TEST(Integration, BlockageDetectedOnMmWaveScenario) {
  // Miniature Fig. 13 as a regression test.
  sim::Simulation sim(3);
  net::Network network(sim);
  auto& a = network.add_host("a", net::ipv4(10, 9, 0, 1));
  auto& b = network.add_host("b", net::ipv4(10, 9, 0, 2));
  auto& sw = network.add_switch("tor");
  network.connect(a, sw, {units::gbps(1), units::microseconds(5),
                          units::mebibytes(8), units::mebibytes(8)});
  auto duplex = network.connect(b, sw,
                                {units::mbps(200), units::microseconds(50),
                                 units::mebibytes(8), units::mebibytes(8)});
  net::MmWaveLink mmwave(sim, *duplex.reverse_link);
  mmwave.schedule_blockage(units::seconds(4), units::seconds(1));

  cp::ControlPlaneConfig cp_config;
  cp_config.digest_poll_interval = units::milliseconds(5);
  core::FabricExecutor fabric(sim, {});
  core::MonitoredSwitch site(sim, fabric,
                             {sw, *duplex.reverse, units::mbps(200)}, {}, {},
                             cp_config);
  fabric.start();
  auto& control = site.control_plane();
  control.start();
  std::vector<SimTime> detections;
  control.set_on_blockage([&](const telemetry::BlockageDigest& d) {
    detections.push_back(d.at);
  });

  tcp::TcpFlow::Config fc;
  fc.sender.rate_limit_bps = units::mbps(50);
  tcp::TcpFlow flow(sim, a, b, fc);
  flow.start_at(units::milliseconds(100));
  sim.run_until(units::seconds(7));

  ASSERT_FALSE(detections.empty());
  // Detection within ~200 ms of blockage onset.
  EXPECT_GE(detections[0], units::seconds(4));
  EXPECT_LE(detections[0], units::seconds(4) + units::milliseconds(200));
}

}  // namespace
}  // namespace p4s
