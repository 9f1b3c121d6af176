// run_experiment — parameterized experiment runner over the public API.
//
//   ./examples/run_experiment --flows 3 --duration 40
//       --bottleneck-mbps 250 --cc cubic --join-at 20 --csv out.csv
//   ./examples/run_experiment --config experiment.json --flows 2
//
// Builds the Figure-8 topology (optionally from a JSON config file), runs
// N staggered DTN transfers, records the per-flow series, prints the
// summary the control plane produced, and optionally writes CSV/SVG.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_loader.hpp"
#include "core/experiment.hpp"
#include "core/monitoring_system.hpp"
#include "core/svg_chart.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

using namespace p4s;
using units::seconds_f;

int main(int argc, char** argv) {
  const util::CliArgs args(
      argc, argv,
      {"config", "flows", "duration", "bottleneck-mbps", "cc", "join-at",
       "buffer-bdp-ms", "seed", "csv", "svg", "report-sps"},
      {"help", "quic"});
  // Numeric flags are read first: a malformed value lands in errors().
  const double bottleneck_mbps = args.number_or("bottleneck-mbps", 250);
  const double buffer_bdp_ms = args.number_or("buffer-bdp-ms", 100);
  const std::uint64_t seed = args.uint_or("seed", 1);
  const auto flows = std::min<std::uint64_t>(args.uint_or("flows", 3), 3);
  const double duration = args.number_or("duration", 40);
  const double join_at = args.number_or("join-at", 0);
  const double report_sps = args.number_or("report-sps", 1);
  // The config loader's ranges for the same keys: a value outside them
  // would overflow the integer conversions below.
  std::vector<std::string> errors = args.errors();
  const auto check_range = [&](const char* flag, double v, std::int64_t max) {
    if (!(v >= 0.0 && v <= static_cast<double>(max))) {
      errors.push_back(std::string("--") + flag + " must be in [0, " +
                       std::to_string(max) + "]");
    }
  };
  check_range("bottleneck-mbps", bottleneck_mbps, 1'000'000'000);
  check_range("buffer-bdp-ms", buffer_bdp_ms, 1'000'000'000'000);
  check_range("duration", duration, 1'000'000'000);
  check_range("join-at", join_at, 1'000'000'000);
  if (!errors.empty() || args.has("help")) {
    for (const auto& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
    std::fprintf(
        stderr,
        "usage: run_experiment [--config file.json] [--flows N<=3] "
        "[--duration S] [--bottleneck-mbps M] [--cc reno|cubic|bbr] "
        "[--join-at S] [--buffer-bdp-ms MS] [--seed N] [--report-sps R] "
        "[--quic] [--csv out.csv] [--svg out.svg]\n");
    return args.has("help") ? 0 : 2;
  }

  core::MonitoringSystemConfig config;
  if (const auto path = args.get("config")) {
    std::ifstream in(*path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path->c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      config = core::config_from_text(text.str());
    } catch (const util::JsonError& e) {
      // Not JSON at all: name the file, as the loader's own errors do.
      std::fprintf(stderr, "config: %s: %s\n", path->c_str(), e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }
  if (args.has("bottleneck-mbps")) {
    config.topology.bottleneck_bps =
        static_cast<std::uint64_t>(bottleneck_mbps * 1e6);
  }
  if (args.has("buffer-bdp-ms")) {
    config.topology.core_buffer_bytes = units::bdp_bytes(
        config.topology.bottleneck_bps, seconds_f(buffer_bdp_ms / 1e3));
  }
  if (args.has("seed")) config.seed = seed;
  const std::string cc = args.get_or("cc", "cubic");

  core::MonitoringSystem system(config);
  char cmd[128];
  std::snprintf(cmd, sizeof cmd,
                "psconfig config-P4 --samples_per_second %g", report_sps);
  system.psonar().psconfig().execute(cmd);
  system.start();

  // --quic routes the transfers over the QUIC-like encrypted transport
  // (spin-bit observable; enable "telemetry": {"spin_rtt": {}} in the
  // config to measure RTT passively — DESIGN.md §5i).
  const bool quic = args.has("quic");
  for (std::uint64_t i = 0; i < flows; ++i) {
    // Last flow joins late when --join-at is given; others start at 1 s.
    const double start =
        (join_at > 0 && i == flows - 1) ? join_at : 1.0;
    if (quic) {
      auto& flow = system.add_quic_transfer(static_cast<int>(i));
      flow.start_at(seconds_f(start));
      flow.stop_at(seconds_f(duration));
    } else {
      tcp::TcpFlow::Config fc;
      fc.sender.congestion_control = cc;
      auto& flow = system.add_transfer(static_cast<int>(i), fc);
      flow.start_at(seconds_f(start));
      flow.stop_at(seconds_f(duration));
    }
  }

  core::Recorder recorder(system.simulation(), system.control_plane());
  recorder.start(seconds_f(2), seconds_f(1), seconds_f(duration + 5));
  system.run_until(seconds_f(duration + 8));

  const std::string join_note =
      join_at > 0 ? " (last joins at " +
                        std::to_string(static_cast<int>(join_at)) + " s)"
                  : "";
  std::printf("experiment: %llu %s flow(s), %.0f Mbps bottleneck, %.0f s"
              "%s\n",
              static_cast<unsigned long long>(flows),
              quic ? "quic" : cc.c_str(),
              static_cast<double>(config.topology.bottleneck_bps) / 1e6,
              duration, join_note.c_str());
  recorder.print_table(std::cout, "throughput",
                       &core::FlowSample::throughput_mbps, "Mbps");

  std::printf("\nterminated-flow reports:\n");
  for (const auto& r : system.control_plane().final_reports()) {
    std::printf("  -> %s: %.1f MB, avg %.1f Mbps, retx %.3f%%, RTT "
                "p50/p95/p99 = %.1f/%.1f/%.1f ms\n",
                net::to_string(r.flow.tuple.dst_ip).c_str(),
                static_cast<double>(r.bytes) / 1e6,
                r.avg_throughput_bps / 1e6, r.retransmission_pct,
                r.rtt_p50_ms, r.rtt_p95_ms, r.rtt_p99_ms);
  }

  if (system.resilient_transport()) {
    // Configs with "transport": {"resilient": true, "faults": [...]} run
    // the report path over the fault-injectable channel; show what the
    // wire went through and that no report was lost.
    const auto& h = system.report_sink().health();
    std::printf(
        "\nreport transport: emitted=%llu sent=%llu retried=%llu "
        "acked=%llu dropped=%llu reconnects=%llu (resets=%llu "
        "stalls=%llu injected)\n",
        static_cast<unsigned long long>(h.emitted),
        static_cast<unsigned long long>(h.sent),
        static_cast<unsigned long long>(h.retried),
        static_cast<unsigned long long>(h.acked),
        static_cast<unsigned long long>(h.dropped_overflow),
        static_cast<unsigned long long>(system.report_sink().reconnects()),
        static_cast<unsigned long long>(
            system.fault_injector().resets_injected()),
        static_cast<unsigned long long>(
            system.fault_injector().stalls_injected()));
  }

  if (const auto path = args.get("csv")) {
    std::ofstream out(*path);
    recorder.write_csv(out);
    std::printf("csv written to %s\n", path->c_str());
  }
  if (const auto path = args.get("svg")) {
    std::ofstream out(*path);
    core::write_fig9_panels(recorder, out);
    std::printf("svg written to %s\n", path->c_str());
  }
  return 0;
}
