// quic_rtt — fidelity and throughput of the spin-bit RTT subsystem.
//
// Part A (accuracy): a QUIC transfer over the paper topology with 1%
// loss toward the receiver, spin_rtt enabled on the core switch. The
// engine's median edge-to-edge gap is compared against the sender's own
// smoothed RTT (the transport's ground truth — what an eACK-style
// in-band measurement would see). The bench exits non-zero if the
// median strays more than 10%, making the acceptance bound a
// CI-checkable fact rather than a doc sentence.
//
// Part B (engine throughput): seeded synthetic QUIC short headers
// straight through the P4 switch into the composed program —
// on_mirrored events/s with the spin engine doing per-DCID table
// lookups and edge detection on every packet.
//
// Part C (NIDS under elephant/mice): the per-flow feature engine offered
// a seeded mix of a few bulk flows and a long tail of short flows —
// events/s with flow-row updates, Welford accumulators, and the window
// classifier in the path, plus a drain to price the digest pass.
//
// `--quick` (CI): trims the streams and the simulated transfer.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/monitoring_system.hpp"
#include "p4/p4_switch.hpp"
#include "telemetry/dataplane_program.hpp"

using namespace p4s;

namespace {

// ---- Part A: spin median vs transport ground truth --------------------

bool spin_accuracy(bench::BenchReport& report, bool quick) {
  core::MonitoringSystemConfig config;
  config.seed = 42;
  config.topology.bottleneck_bps = units::mbps(200);
  config.program.spin_rtt.emplace();
  core::MonitoringSystem system(config);
  system.topology().ext_dtn_links[0].reverse_link->set_loss_rate(0.01);
  system.start();

  auto& flow = system.add_quic_transfer(0);
  flow.start_at(units::seconds(1));
  const SimTime stop = units::seconds(quick ? 5 : 10);
  flow.stop_at(stop);
  bench::WallTimer timer;
  system.run_until(stop + units::seconds(2));
  const double sim_wall = timer.elapsed_s();

  const telemetry::SpinRttEngine& engine =
      *system.program().engines_of<telemetry::SpinRttEngine>().at(0);
  const double median = engine.quantile_ns(0.5);
  const double truth = static_cast<double>(flow.sender().rtt().srtt());
  const double err = truth == 0.0 ? 1.0 : std::abs(median - truth) / truth;

  report.metric("spin_p50_ms", median / 1e6);
  report.metric("ground_truth_srtt_ms", truth / 1e6);
  report.metric("spin_rel_err", err);
  report.metric("spin_samples", engine.samples());
  report.metric("spin_edges", engine.edges());
  report.metric("spin_rejected_outlier", engine.rejected_outlier());
  report.metric("spin_rejected_reordered", engine.rejected_reordered());
  report.metric("spin_sim_wall_s", sim_wall);
  std::printf("spin accuracy: p50 %.3f ms vs srtt %.3f ms (err %.2f%%), "
              "%llu samples, %llu outliers rejected\n",
              median / 1e6, truth / 1e6, err * 100.0,
              static_cast<unsigned long long>(engine.samples()),
              static_cast<unsigned long long>(engine.rejected_outlier()));
  if (engine.samples() < 20 || err > 0.10) {
    std::fprintf(stderr,
                 "quic_rtt: spin median err %.4f exceeds the 10%% bound "
                 "(%llu samples)\n",
                 err, static_cast<unsigned long long>(engine.samples()));
    return false;
  }
  return true;
}

// ---- Part B: spin-engine event rate -----------------------------------

void spin_throughput(bench::BenchReport& report, std::size_t packets) {
  telemetry::DataPlaneProgram::Config config;
  config.spin_rtt.emplace();
  telemetry::DataPlaneProgram program(config);
  sim::Simulation sim;
  p4::P4Switch sw(sim, "bench");
  sw.load_program(program);
  sim.run_until(units::milliseconds(1));

  // 64 concurrent connections, one spin toggle every 32 packets.
  std::vector<net::Packet> stream;
  stream.reserve(packets);
  std::mt19937_64 rng(7);
  std::vector<std::uint32_t> pns(64, 1);
  std::vector<bool> spins(64, false);
  for (std::size_t i = 0; i < packets; ++i) {
    const std::size_t c = rng() % 64;
    if (pns[c] % 32 == 0) spins[c] = !spins[c];
    net::QuicHeader hdr;
    hdr.long_form = false;
    hdr.spin = spins[c];
    hdr.dcid = 0x1000 + c;
    hdr.packet_number = pns[c]++;
    stream.push_back(net::make_quic_packet(
        net::ipv4(10, 0, 0, static_cast<std::uint8_t>(c)),
        net::ipv4(10, 1, 0, 10), 40000, 4433, hdr, 1200));
  }

  bench::WallTimer timer;
  for (const auto& pkt : stream) {
    sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
  }
  const double rate = static_cast<double>(packets) / timer.elapsed_s();
  report.metric("spin_events_per_sec", rate);
  report.metric("spin_events", static_cast<std::uint64_t>(packets));
  std::printf("spin engine: %.3gM events/s over %zu packets, %llu edges\n",
              rate / 1e6, packets,
              static_cast<unsigned long long>(
                  program.engines_of<telemetry::SpinRttEngine>()
                      .at(0)
                      ->edges()));
}

// ---- Part C: NIDS feature engine under an elephant/mice mix -----------

void nids_throughput(bench::BenchReport& report, std::size_t packets) {
  telemetry::DataPlaneProgram::Config config;
  config.nids.emplace();
  config.nids->window = 0;
  telemetry::DataPlaneProgram program(config);
  sim::Simulation sim;
  p4::P4Switch sw(sim, "bench");
  sw.load_program(program);
  sim.run_until(units::milliseconds(1));

  // 8 elephants carry ~80% of packets; the rest is a tail of 4k mice.
  std::vector<net::Packet> stream;
  stream.reserve(packets);
  std::mt19937_64 rng(13);
  for (std::size_t i = 0; i < packets; ++i) {
    const bool elephant = (rng() % 10) < 8;
    const std::uint32_t flow =
        elephant ? static_cast<std::uint32_t>(rng() % 8)
                 : 8 + static_cast<std::uint32_t>(rng() % 4096);
    stream.push_back(net::make_tcp_packet(
        net::ipv4(10, 0, static_cast<std::uint8_t>(flow >> 8),
                  static_cast<std::uint8_t>(flow)),
        net::ipv4(10, 1, 0, 10),
        static_cast<std::uint16_t>(40000 + (flow % 20000)), 5201,
        static_cast<std::uint32_t>(i), 0, net::tcpflags::kAck,
        elephant ? 1460 : 120, 1 << 16));
  }

  bench::WallTimer timer;
  for (const auto& pkt : stream) {
    sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
  }
  const double rate = static_cast<double>(packets) / timer.elapsed_s();

  telemetry::NidsFeatureEngine& engine =
      *program.engines_of<telemetry::NidsFeatureEngine>().at(0);
  bench::WallTimer drain_timer;
  const auto docs = engine.drain_digests(sim.now());
  const double drain_s = drain_timer.elapsed_s();

  report.metric("nids_events_per_sec", rate);
  report.metric("nids_events", static_cast<std::uint64_t>(packets));
  report.metric("nids_tracked_flows",
                static_cast<std::uint64_t>(engine.tracked_flows()));
  report.metric("nids_drain_docs", static_cast<std::uint64_t>(docs.size()));
  report.metric("nids_drain_s", drain_s);
  report.metric("nids_alerts", engine.alerts_emitted());
  std::printf("nids engine: %.3gM events/s, %zu tracked flows, drain %zu "
              "docs in %.3f ms, %llu alerts\n",
              rate / 1e6, engine.tracked_flows(), docs.size(),
              drain_s * 1e3,
              static_cast<unsigned long long>(engine.alerts_emitted()));
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::WallTimer wall;
  bench::BenchReport report("quic_rtt");

  const bool ok = spin_accuracy(report, quick);
  spin_throughput(report, quick ? 200'000 : 1'000'000);
  nids_throughput(report, quick ? 200'000 : 1'000'000);

  report.wall_time_s(wall.elapsed_s());
  report.meta("quick", util::Json(quick));
  report.meta("seed", util::Json(42));
  if (!report.write()) return 1;
  if (!ok) {
    std::fprintf(stderr, "quic_rtt: accuracy bound violated\n");
    return 1;
  }
  return 0;
}
