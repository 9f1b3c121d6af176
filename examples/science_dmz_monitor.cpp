// Science DMZ monitoring walk-through — the paper's headline scenario.
//
// Builds the Figure-8 topology, runs a realistic mix of DTN transfers
// (staggered bulk flows to all three external sites) alongside the
// regular perfSONAR active mesh (iperf3 + ping from the internal node),
// and prints a live per-flow dashboard like the Grafana panels of
// Figure 9 plus the §5.3 aggregates. The full time series is written to
// science_dmz_monitor.csv for plotting.
//
//   ./examples/science_dmz_monitor
#include <cstdio>
#include <fstream>
#include <algorithm>
#include <iostream>
#include <map>

#include "core/experiment.hpp"
#include "core/svg_chart.hpp"
#include "core/monitoring_system.hpp"
#include "psonar/analytics.hpp"
#include "psonar/maddash.hpp"
#include "psonar/pscheduler.hpp"

using namespace p4s;
using units::seconds;

int main() {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(250);
  config.topology.core_buffer_bytes = units::bdp_bytes(
      config.topology.bottleneck_bps, units::milliseconds(50));
  core::MonitoringSystem system(config);

  // Reporting: 1 sample/s for everything; alert if queue occupancy
  // crosses 50%, boosting its extraction to 10/s.
  auto& psconfig = system.psonar().psconfig();
  psconfig.execute("psconfig config-P4 --samples_per_second 1");
  psconfig.execute(
      "psconfig config-P4 --metric queue_occupancy --alert --threshold 50 "
      "--samples_per_second 10");
  system.start();

  // The regular perfSONAR mesh keeps running its periodic active tests,
  // configured through a pSConfig mesh template.
  const char* mesh_template = R"({
    "tasks": [
      {"type": "latency", "src": "psonar-internal", "dst": "psonar-ext1",
       "start_s": 2, "count": 5, "repeat_s": 20},
      {"type": "latency", "src": "psonar-internal", "dst": "psonar-ext2",
       "start_s": 2, "count": 5, "repeat_s": 20},
      {"type": "latency", "src": "psonar-internal", "dst": "psonar-ext3",
       "start_s": 2, "count": 5, "repeat_s": 20},
      {"type": "udp_stream", "src": "psonar-internal",
       "dst": "psonar-ext1", "start_s": 5, "duration_s": 3,
       "rate_mbps": 2, "repeat_s": 25},
      {"type": "trace", "src": "psonar-internal", "dst": "psonar-ext3",
       "start_s": 3}
    ]
  })";
  std::map<std::string, net::Host*> hosts = {
      {"psonar-internal", system.topology().psonar_internal},
      {"psonar-ext1", system.topology().psonar_ext[0]},
      {"psonar-ext2", system.topology().psonar_ext[1]},
      {"psonar-ext3", system.topology().psonar_ext[2]},
  };
  const auto mesh_result = psconfig.apply_mesh_text(
      mesh_template, system.psonar().scheduler(), hosts);
  std::printf("pSConfig mesh: %s\n", mesh_result.message.c_str());

  // DTN workload: staggered transfers to the three external sites.
  auto& f1 = system.add_transfer(0);
  auto& f2 = system.add_transfer(1);
  auto& f3 = system.add_transfer(2);
  f1.start_at(seconds(1));
  f2.start_at(seconds(10));
  f3.start_at(seconds(20));
  f1.stop_at(seconds(50));
  f2.stop_at(seconds(55));
  f3.stop_at(seconds(55));

  core::Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(seconds(2), seconds(1), seconds(60));

  // Live dashboard every 5 s.
  system.simulation().every(seconds(5), seconds(5), [&]() {
    const auto& cp = system.control_plane();
    char fairness[16] = "-";  // undefined while the link is idle
    if (cp.aggregates().fairness.has_value()) {
      std::snprintf(fairness, sizeof fairness, "%.2f",
                    *cp.aggregates().fairness);
    }
    std::printf("t=%4.0fs | util %4.0f%% fair %s | %zu flows |",
                units::to_seconds(system.simulation().now()),
                cp.aggregates().link_utilization * 100.0, fairness,
                cp.flows().size());
    for (const auto& [slot, st] : cp.flows()) {
      (void)slot;
      std::printf(" %s %.0fMbps/%.0fms/%s",
                  net::to_string(st.flow.tuple.dst_ip).c_str(),
                  st.throughput_bps / 1e6,
                  units::to_milliseconds(st.rtt_ns),
                  telemetry::to_string(st.verdict));
    }
    std::printf("\n");
    return system.simulation().now() < seconds(60);
  });

  system.run_until(seconds(62));

  std::printf("\n== terminated-flow reports (§3.3.2) ==\n");
  for (const auto& r : system.control_plane().final_reports()) {
    std::printf("%s -> %s: %.1fs, %llu pkts, %.1f MB, avg %.1f Mbps, "
                "retx %llu (%.3f%%)\n",
                net::to_string(r.flow.tuple.src_ip).c_str(),
                net::to_string(r.flow.tuple.dst_ip).c_str(),
                units::to_seconds(r.end - r.start),
                static_cast<unsigned long long>(r.packets),
                static_cast<double>(r.bytes) / 1e6,
                r.avg_throughput_bps / 1e6,
                static_cast<unsigned long long>(r.retransmissions),
                r.retransmission_pct);
  }

  std::printf("\n== regular perfSONAR active-test results ==\n");
  for (const auto& r : system.psonar().scheduler().latency_results()) {
    std::printf("ping %s -> %s: %.1f/%.1f/%.1f ms (%d/%d)\n",
                r.src.c_str(), r.dst.c_str(), r.min_rtt_ms, r.mean_rtt_ms,
                r.max_rtt_ms, r.received, r.sent);
  }
  for (const auto& r : system.psonar().scheduler().traceroute_results()) {
    std::printf("traceroute %s -> %s:", r.src.c_str(), r.dst.c_str());
    for (const auto& hop : r.hops) {
      std::printf("  %s (%.1f ms)",
                  hop.replied ? net::to_string(hop.addr).c_str() : "*",
                  hop.rtt_ms);
    }
    std::printf("%s\n", r.reached ? "" : "  [unreached]");
  }

  std::printf("\n");
  ps::MadDash maddash(system.psonar().archiver());
  ps::MadDash::render(maddash.loss_grid(1.0, 5.0), std::cout);
  ps::MadDash::render(maddash.owd_grid(60.0, 120.0), std::cout);

  // Trace analytics over the archive (NetSage / OnTimeDetect style, §6).
  ps::Analytics analytics(system.psonar().archiver());
  std::printf("\n== top talkers (from terminated-flow reports) ==\n");
  for (const auto& talker : analytics.top_talkers(5)) {
    std::printf("%-14s %8.1f MB in %llu flow(s), retx %.3f%%\n",
                talker.dst_ip.c_str(),
                static_cast<double>(talker.bytes) / 1e6,
                static_cast<unsigned long long>(talker.flows),
                talker.retransmission_pct);
  }
  for (const auto& talker : analytics.top_talkers(3)) {
    ps::Archiver::Query query;
    query.terms["flow.dst_ip"] = util::Json(talker.dst_ip);
    const auto anomalies = analytics.detect_anomalies(
        "p4sonar-throughput", "throughput_bps", query);
    std::printf("throughput anomalies toward %s: %zu",
                talker.dst_ip.c_str(), anomalies.size());
    for (std::size_t i = 0;
         i < std::min<std::size_t>(3, anomalies.size()); ++i) {
      std::printf("  [t=%.0fs %.0f->%.0f Mbps]",
                  units::to_seconds(anomalies[i].at),
                  anomalies[i].expected / 1e6, anomalies[i].value / 1e6);
    }
    std::printf("\n");
  }

  std::printf("\n== archiver summary ==\n");
  auto& archiver = system.psonar().archiver();
  for (const auto& index : archiver.indices()) {
    std::printf("%-28s %llu docs\n", index.c_str(),
                static_cast<unsigned long long>(archiver.doc_count(index)));
  }
  std::printf("alerts fired: %zu\n", system.control_plane().alerts().size());

  std::ofstream csv("science_dmz_monitor.csv");
  recorder.write_csv(csv);
  std::ofstream svg("science_dmz_monitor.svg");
  core::write_fig9_panels(recorder, svg);
  std::printf("\ntime series written to science_dmz_monitor.csv and "
              "rendered to science_dmz_monitor.svg (%zu samples)\n",
              recorder.samples().size());
  return 0;
}
