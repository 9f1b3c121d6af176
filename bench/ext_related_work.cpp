// Extension bench — capabilities from the paper's related work (§6)
// implemented on top of the same substrate:
//
//  * P4CCI (Kfoury et al.): identify each flow's congestion-control
//    algorithm from the data-plane bytes-in-flight series. The paper's
//    system feeds a DNN; here an interpretable feature heuristic reaches
//    the same verdicts for reno / cubic / bbr.
//  * BBR queue behaviour (Gomez et al. study BBRv2's queueing/loss
//    profile): identical single-flow runs contrasting CUBIC's full
//    buffer + periodic loss with BBR's near-empty queue.
//  * AmLight INT (Bezerra et al.): sampled per-packet postcards and the
//    collector load they generate at different sampling ratios.
#include <cstdio>

#include "bench_common.hpp"
#include "controlplane/cca_identifier.hpp"
#include "util/stats.hpp"

using namespace p4s;
using units::seconds;

namespace {

void cca_identification() {
  std::printf("\n== P4CCI-style CCA identification (one flow per CCA) "
              "==\n%-8s %-12s %10s %10s %10s %12s\n",
              "actual", "identified", "decreases", "losses", "cv",
              "early_share");
  for (const char* cc : {"reno", "cubic", "bbr"}) {
    core::MonitoringSystemConfig config;
    config.topology.bottleneck_bps = bench::scaled_bottleneck_bps();
    config.topology.core_buffer_bytes = units::bdp_bytes(
        config.topology.bottleneck_bps, units::milliseconds(50));
    core::MonitoringSystem system(config);
    system.start();
    cp::CcaIdentifier ident(system.control_plane());
    ident.start();
    tcp::TcpFlow::Config fc;
    fc.sender.congestion_control = cc;
    auto& flow = system.add_transfer(0, fc);
    flow.start_at(units::milliseconds(100));
    system.run_until(seconds(45));
    for (const auto& [slot, verdict] : ident.classify_all()) {
      const auto f = ident.features(slot);
      std::printf("%-8s %-12s %10d %10llu %10.3f %12.3f\n", cc,
                  cp::to_string(verdict), f.decreases,
                  static_cast<unsigned long long>(f.losses), f.cv,
                  f.early_share);
    }
  }
}

void bbr_vs_cubic_queues() {
  // Gomez et al.'s theme is how BBR's model-based operation changes
  // queueing vs loss-based CUBIC. The faithful single-flow contrast:
  // identical runs, one CCA each; compare steady-state queue occupancy
  // and loss. (Multi-flow BBRv1/v2 coexistence needs mechanisms this
  // simplified BBR omits — PROBE_RTT, aggressive re-probing — so that
  // comparison is intentionally NOT claimed here.)
  std::printf("\n== BBR vs CUBIC: queue behaviour at the same bottleneck "
              "==\n%-8s %16s %16s %14s %14s\n", "cca", "goodput_Mbps",
              "steady_q_fill", "drops>3s", "retx>3s");
  for (const char* cc : {"cubic", "bbr"}) {
    sim::Simulation sim(42);
    net::Network network(sim);
    net::PaperTopologyConfig tconfig;
    tconfig.bottleneck_bps = bench::scaled_bottleneck_bps();
    auto topo = net::make_paper_topology(network, tconfig);
    tcp::TcpFlow::Config fc;
    fc.sender.congestion_control = cc;
    tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], fc);
    flow.start_at(units::milliseconds(1));
    flow.stop_at(seconds(30));
    util::RunningStats fill;
    std::uint64_t drops_at_3s = 0, retx_at_3s = 0;
    sim.at(seconds(3), [&]() {
      drops_at_3s = topo.bottleneck_port->queue().stats().dropped_pkts;
      retx_at_3s = flow.sender().stats().retransmitted_segments;
    });
    sim.every(seconds(3), units::milliseconds(100), [&]() {
      fill.add(topo.bottleneck_port->queue().fill_fraction());
      return sim.now() < seconds(30);
    });
    sim.run_until(seconds(34));
    std::printf("%-8s %16.1f %16.3f %14llu %14llu\n", cc,
                flow.average_goodput_bps(sim.now()) / 1e6, fill.mean(),
                static_cast<unsigned long long>(
                    topo.bottleneck_port->queue().stats().dropped_pkts -
                    drops_at_3s),
                static_cast<unsigned long long>(
                    flow.sender().stats().retransmitted_segments -
                    retx_at_3s));
  }
  std::printf("(both fill the link; CUBIC keeps the buffer mostly full "
              "with periodic loss, BBR keeps it near-empty with none)\n");
}

void int_sampling() {
  std::printf("\n== INT postcard export: collector load vs sampling "
              "ratio ==\n%-14s %16s %16s %14s\n", "sample_every",
              "egress_pkts", "postcards", "archived_docs");
  for (std::uint32_t n : {32u, 128u, 512u}) {
    core::MonitoringSystemConfig config;
    config.topology.bottleneck_bps = bench::scaled_bottleneck_bps();
    config.program.int_export.enabled = true;
    config.program.int_export.sample_every = n;
    core::MonitoringSystem system(config);
    system.start();
    auto& flow = system.add_transfer(0);
    flow.start_at(units::milliseconds(100));
    system.run_until(seconds(10));
    const auto& exporter = system.program().int_exporter();
    std::printf("1 in %-9u %16llu %16llu %14llu\n", n,
                static_cast<unsigned long long>(exporter.packets_seen()),
                static_cast<unsigned long long>(
                    exporter.postcards_emitted()),
                static_cast<unsigned long long>(
                    system.psonar().archiver().doc_count(
                        "p4sonar-int_postcard")));
  }
}

}  // namespace

int main() {
  bench::WallTimer wall;
  bench::print_header(
      "Related-work extensions — P4CCI, BBR queueing, INT postcards",
      "§6 (Kfoury et al. P4CCI; Gomez et al. BBRv2; Bezerra et al. "
      "AmLight INT)",
      "CCA verdicts match the running algorithm; BBR runs a near-empty "
      "queue where CUBIC fills it; postcard volume scales as 1/N");
  cca_identification();
  bbr_vs_cubic_queues();
  int_sampling();
  bench::BenchReport report("ext_related_work");
  report.wall_time_s(wall.elapsed_s());
  return report.write() ? 0 : 1;
}
