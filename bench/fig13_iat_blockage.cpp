// Figure 13 / §5.4.3 reproduction: identifying mmWave LOS blockage from
// packet inter-arrival times.
//
// Paper shape: without blockage the IAT stays flat; with a blockage at
// t=7 s the IAT increases by multiple orders of magnitude for the
// blockage duration. The data plane's IAT monitor raises a blockage
// digest within a few packet gaps.
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/monitored_switch.hpp"
#include "net/impairment.hpp"
#include "net/topology.hpp"
#include "tcp/flow.hpp"

using namespace p4s;
using units::milliseconds;
using units::seconds;

namespace {

struct IatRun {
  std::vector<std::pair<double, double>> iat_series;  // (t_s, iat_ms)
  std::vector<double> blockage_digests_at;            // t_s
};

IatRun run(bool with_blockage) {
  sim::Simulation sim(7);
  net::Network network(sim);
  auto& host_a = network.add_host("sender", net::ipv4(10, 9, 0, 1));
  auto& host_b = network.add_host("receiver", net::ipv4(10, 9, 0, 2));
  auto& sw = network.add_switch("tor");

  const std::uint64_t wired_bps = units::gbps(1);
  const std::uint64_t mmwave_bps = units::mbps(200);
  net::Network::LinkSpec uplink{wired_bps, units::microseconds(5),
                                units::mebibytes(8), units::mebibytes(8)};
  network.connect(host_a, sw, uplink);
  net::Network::LinkSpec mmlink{mmwave_bps, units::microseconds(50),
                                units::mebibytes(8), units::mebibytes(8)};
  auto duplex = network.connect(host_b, sw, mmlink);

  // The switch->receiver hop is the 60 GHz point-to-point link.
  net::MmWaveLink mmwave(sim, *duplex.reverse_link);
  if (with_blockage) {
    mmwave.schedule_blockage(seconds(7), seconds(2));
  }

  // Passive monitoring of the ToR switch's mmWave port.
  cp::ControlPlaneConfig cp_config;
  cp_config.digest_poll_interval = milliseconds(5);
  core::FabricExecutor fabric(sim, {});
  core::MonitoredSwitch site(sim, fabric, {sw, *duplex.reverse, mmwave_bps},
                             {}, {}, cp_config);
  fabric.start();
  auto& control = site.control_plane();
  control.start();

  IatRun result;
  control.set_on_blockage([&](const telemetry::BlockageDigest& d) {
    result.blockage_digests_at.push_back(units::to_seconds(d.at));
  });

  // A paced 50 Mbps transfer (steady IATs ~0.23 ms at full MTU).
  tcp::TcpFlow::Config flow_config;
  flow_config.sender.rate_limit_bps = units::mbps(50);
  tcp::TcpFlow flow(sim, host_a, host_b, flow_config);
  flow.start_at(seconds(1));

  sim.every(seconds(2), milliseconds(20), [&]() {
    control.sync_data_plane();  // the IAT register as of now
    for (const auto& [slot, state] : control.flows()) {
      (void)state;
      const SimTime iat = site.program().iat_monitor().last_iat(slot);
      result.iat_series.emplace_back(units::to_seconds(sim.now()),
                                     units::to_milliseconds(iat));
    }
    return sim.now() < seconds(12);
  });
  sim.run_until(seconds(12));
  return result;
}

void print_series(const char* title, const IatRun& r) {
  std::printf("\n== %s ==\n%-8s %12s\n", title, "t_s", "iat_ms");
  // Thin to ~50 rows but always keep local maxima (the blockage spikes).
  const std::size_t n = r.iat_series.size();
  const std::size_t step = n > 50 ? n / 50 : 1;
  double window_max = 0.0;
  std::size_t count = 0;
  double t = 0.0;
  for (const auto& [ts, iat] : r.iat_series) {
    window_max = std::max(window_max, iat);
    t = ts;
    if (++count % step == 0) {
      std::printf("%-8.2f %12.4f\n", t, window_max);
      window_max = 0.0;
    }
  }
  std::printf("blockage digests: %zu", r.blockage_digests_at.size());
  for (double at : r.blockage_digests_at) std::printf("  @%.3fs", at);
  std::printf("\n");
}

}  // namespace

int main() {
  bench::WallTimer wall;
  bench::print_header(
      "Figure 13 — packet IAT under mmWave LOS blockage",
      "§5.4.3, Fig. 13 (a) no blockage, (b) blockage at t=7 s",
      "flat IAT without blockage; IAT jumps by orders of magnitude "
      "during the 2 s blockage; data plane raises a blockage digest");

  IatRun clear = run(false);
  IatRun blocked = run(true);

  print_series("(a) no blockage", clear);
  print_series("(b) blockage at t=7 s for 2 s", blocked);

  double clear_max = 0.0, normal_max = 0.0, blocked_max = 0.0;
  for (const auto& [t, iat] : clear.iat_series) {
    clear_max = std::max(clear_max, iat);
  }
  for (const auto& [t, iat] : blocked.iat_series) {
    if (t >= 7.0 && t <= 9.5) {
      blocked_max = std::max(blocked_max, iat);
    } else {
      normal_max = std::max(normal_max, iat);
    }
  }
  std::printf("\nshape summary:\n");
  std::printf("  max IAT, run (a): %.3f ms\n", clear_max);
  std::printf("  max IAT outside blockage, run (b): %.3f ms\n", normal_max);
  std::printf("  max IAT during blockage, run (b): %.3f ms -> %.0fx the "
              "clear baseline (paper: orders of magnitude)\n",
              blocked_max,
              clear_max > 0 ? blocked_max / clear_max : 0.0);
  std::printf("  blockage digests in run (a): %zu (expected 0), run (b): "
              "%zu (expected >= 1)\n",
              clear.blockage_digests_at.size(),
              blocked.blockage_digests_at.size());
  bench::BenchReport report("fig13_iat_blockage");
  report.wall_time_s(wall.elapsed_s());
  return report.write() ? 0 : 1;
}
