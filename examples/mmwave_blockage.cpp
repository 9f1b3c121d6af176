// mmWave LOS-blockage detection and fast failover (§5.4.3, Figs. 13-14):
// a ToR-to-host 60 GHz hop suffers a 2 s human blockage; the P4 data
// plane spots the inter-arrival-time signature within milliseconds and
// the control plane steers traffic onto a wired backup path before TCP
// throughput collapses.
//
//   ./examples/mmwave_blockage
#include <cstdio>

#include "core/monitored_switch.hpp"
#include "net/impairment.hpp"
#include "net/topology.hpp"
#include "tcp/flow.hpp"

using namespace p4s;
using units::milliseconds;
using units::seconds;

int main() {
  sim::Simulation sim(7);
  net::Network network(sim);
  auto& sender = network.add_host("gpu-node", net::ipv4(10, 9, 0, 1));
  auto& receiver = network.add_host("storage", net::ipv4(10, 9, 0, 2));
  auto& tor = network.add_switch("tor");

  network.connect(sender, tor, {units::gbps(1), units::microseconds(5),
                                units::mebibytes(8), units::mebibytes(8)});
  auto primary = network.connect(
      receiver, tor, {units::mbps(200), units::microseconds(50),
                      units::mebibytes(8), units::mebibytes(8)});
  net::MmWaveLink mmwave(sim, *primary.reverse_link);
  mmwave.schedule_blockage(seconds(7), seconds(2));

  // Wired backup path ToR -> storage.
  net::Link backup_link(sim, units::mbps(200), units::microseconds(100));
  backup_link.set_sink(receiver);
  net::OutputPort backup_port(sim, units::mebibytes(8), backup_link);
  const std::size_t backup_idx = tor.add_port(backup_port);

  // Passive P4 monitor on the ToR's mmWave port.
  cp::ControlPlaneConfig cp_config;
  cp_config.digest_poll_interval = milliseconds(5);
  core::FabricExecutor fabric(sim, {});
  core::MonitoredSwitch monitor(
      sim, fabric, {tor, *primary.reverse, units::mbps(200)}, {}, {},
      cp_config);
  fabric.start();
  auto& control = monitor.control_plane();
  control.start();

  bool rerouted = false;
  control.set_on_blockage([&](const telemetry::BlockageDigest& d) {
    if (rerouted) return;
    rerouted = true;
    std::printf("t=%.3fs  BLOCKAGE digest (IAT %.2f ms vs baseline "
                "%.3f ms) -> rerouting to the wired backup\n",
                units::to_seconds(d.at), units::to_milliseconds(d.iat_ns),
                units::to_milliseconds(d.baseline_iat_ns));
    tor.route(receiver.ip(), backup_idx);
  });

  tcp::TcpFlow::Config fc;
  fc.sender.rate_limit_bps = units::mbps(100);
  tcp::TcpFlow flow(sim, sender, receiver, fc);
  flow.start_at(milliseconds(100));

  std::uint64_t last_bytes = 0;
  sim.every(milliseconds(500), milliseconds(500), [&]() {
    const std::uint64_t bytes = flow.receiver().stats().goodput_bytes;
    std::printf("t=%5.1fs  goodput %6.1f Mbps  %s%s\n",
                units::to_seconds(sim.now()),
                static_cast<double>(bytes - last_bytes) * 8.0 / 0.5 / 1e6,
                mmwave.blocked() ? "[LOS BLOCKED] " : "",
                rerouted ? "[on backup path]" : "[on mmWave path]");
    last_bytes = bytes;
    return sim.now() < seconds(12);
  });

  sim.run_until(seconds(12));
  std::printf("\nresult: %s\n",
              rerouted ? "blockage detected in the data plane; traffic "
                         "survived on the backup path"
                       : "no blockage detected (unexpected)");
  return 0;
}
