#include "trace/trace_cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mpl/compiler.hpp"
#include "net/wire.hpp"
#include "p4/parser.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_replayer.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

namespace p4s::trace {

namespace {

void usage(std::ostream& err) {
  err << "usage: p4s-trace <command> [args]\n"
         "\n"
         "commands:\n"
         "  info   <file.pcap>...            print file header + record "
         "summary\n"
         "  stats  <ingress.pcap> [<egress.pcap>]\n"
         "         [--histogram rtt|iat|queue_delay] [--bins N]\n"
         "         [--hist-min-us X] [--hist-max-ms Y] [--flows N]\n"
         "                                   analyze the merged trace; "
         "with\n"
         "                                   --histogram, replay it "
         "through the\n"
         "                                   pipeline and render the "
         "metric's\n"
         "                                   bin counts and quantiles; "
         "with no\n"
         "                                   metric name, list the "
         "metrics the\n"
         "                                   capture offers\n"
         "  replay <ingress.pcap> [<egress.pcap>]\n"
         "         [--samples-per-second N] [--seed N] [--runout-seconds S]\n"
         "         [--buffer-bytes B] [--bottleneck-bps R] "
         "[--print-reports]\n"
         "         [--program <file.mpl.json>]\n"
         "                                   replay through the P4 "
         "pipeline;\n"
         "                                   --program installs a "
         "measurement\n"
         "                                   program on the pipeline's "
         "VM\n";
}

// Print every flag error: unknown flags are known once the arguments
// are parsed, malformed numbers once a command has read its flags.
// Either stops the command before it does any work.
bool flag_errors(const util::CliArgs& args, std::ostream& err) {
  for (const auto& e : args.errors()) err << "p4s-trace: " << e << "\n";
  return !args.errors().empty();
}

std::string fmt_seconds(SimTime ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", units::to_seconds(ns));
  return buf;
}

std::string fmt_ms(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

int cmd_info(const std::vector<std::string>& files, std::ostream& out) {
  for (const auto& path : files) {
    PcapReader reader(path);
    const auto& info = reader.info();
    std::uint64_t records = 0;
    std::uint64_t captured = 0;
    std::uint64_t wire = 0;
    SimTime first = 0;
    SimTime last = 0;
    while (auto rec = reader.next()) {
      first = records == 0 ? rec->ts : std::min(first, rec->ts);
      last = std::max(last, rec->ts);
      captured += rec->bytes.size();
      wire += rec->orig_len;
      ++records;
    }
    out << path << ":\n"
        << "  format: pcap " << info.version_major << "."
        << info.version_minor << ", "
        << (info.nanosecond ? "nanosecond" : "microsecond")
        << " timestamps, "
        << (info.swapped ? "swapped" : "native") << " byte order\n"
        << "  linktype: " << info.linktype
        << (info.linktype == kLinktypeEthernet ? " (Ethernet)" : "")
        << ", snaplen: " << info.snaplen << "\n"
        << "  records: " << records << " (" << captured
        << " captured bytes, " << wire << " on the wire)\n";
    if (records > 0) {
      out << "  time span: " << fmt_seconds(first) << "s .. "
          << fmt_seconds(last) << "s (duration "
          << fmt_seconds(last - first) << "s)\n";
    }
  }
  return 0;
}

// Replay the capture through one engine of every histogram metric and
// list what each would observe — the discovery path for `--histogram`
// with no (or an unknown) metric name.
void list_histogram_metrics(const TraceReplayer& trace, std::ostream& out) {
  ReplayPipeline::Config config;
  for (const auto metric :
       {telemetry::HistogramEngineConfig::Metric::kRtt,
        telemetry::HistogramEngineConfig::Metric::kIat,
        telemetry::HistogramEngineConfig::Metric::kQueueDelay}) {
    telemetry::HistogramEngineConfig hc;
    hc.metric = metric;
    config.program.histograms.push_back(hc);
  }
  ReplayPipeline pipeline(config);
  trace.replay(pipeline.simulation(), pipeline.p4_switch());
  out << "available histogram metrics in this capture:\n";
  for (const telemetry::HistogramEngine* engine :
       pipeline.program().engines_of<telemetry::HistogramEngine>()) {
    out << "  " << engine->name() << ": " << engine->samples()
        << " samples\n";
  }
}

// Render the bin counts of a replayed capture's histogram engine: one
// row per bin with an ASCII bar, then the sketch quantiles.
// `hc` carries the bins and bounds the caller read from the flags.
int render_histogram(const TraceReplayer& trace, const util::CliArgs& args,
                     telemetry::HistogramEngineConfig hc, std::ostream& out,
                     std::ostream& err) {
  const std::string metric_arg = *args.get("histogram");
  if (metric_arg.empty()) {
    // `--histogram` with no metric: list what the capture offers.
    list_histogram_metrics(trace, out);
    return 0;
  }
  try {
    hc.metric = telemetry::histogram_metric_from_name(metric_arg);
  } catch (const std::invalid_argument& e) {
    err << "p4s-trace stats: " << e.what() << "\n";
    list_histogram_metrics(trace, err);
    return 2;
  }
  if (!(hc.histogram.bins > 0 && hc.histogram.min > 0.0 &&
        hc.histogram.min < hc.histogram.max)) {
    err << "p4s-trace stats: histogram bounds must satisfy 0 < "
           "--hist-min-us < --hist-max-ms and --bins > 0\n";
    return 2;
  }

  ReplayPipeline::Config config;
  config.program.histograms.push_back(hc);
  ReplayPipeline pipeline(config);
  trace.replay(pipeline.simulation(), pipeline.p4_switch());

  const telemetry::HistogramEngine& engine =
      *pipeline.program().engines_of<telemetry::HistogramEngine>().at(0);
  const sketch::Histogram& hist = engine.histogram();
  out << engine.name() << ": " << engine.samples() << " samples\n";
  if (hist.underflow() > 0) {
    out << "  underflow (< " << fmt_ms(hist.config().min) << " ms): "
        << hist.underflow() << "\n";
  }
  std::uint64_t peak = 1;
  for (std::size_t b = 0; b < hist.config().bins; ++b) {
    peak = std::max(peak, hist.count(b));
  }
  for (std::size_t b = 0; b < hist.config().bins; ++b) {
    const std::uint64_t count = hist.count(b);
    if (count == 0) continue;
    const auto width = static_cast<std::size_t>(40 * count / peak);
    out << "  [" << fmt_ms(hist.bin_lower(b)) << " ms, "
        << fmt_ms(hist.bin_upper(b)) << " ms) " << count << " "
        << std::string(width, '#') << "\n";
  }
  if (hist.overflow() > 0) {
    out << "  overflow (>= " << fmt_ms(hist.config().max) << " ms): "
        << hist.overflow() << "\n";
  }
  for (const double q : {0.50, 0.95, 0.99}) {
    out << "  p" << static_cast<int>(q * 100) << ": "
        << fmt_ms(engine.quantile_ns(q)) << " ms\n";
  }
  return 0;
}

// Top-talker table: aggregate ingress frames (one copy per packet; the
// egress mirror would double-count) by 5-tuple and print the top N by
// wire bytes. Only frames the parser accepts with an IPv4 header that
// passes its checksum and a TCP, UDP or ICMP header are listed.
void print_top_flows(const TraceReplayer& trace, std::size_t top_n,
                     std::ostream& out) {
  struct FlowAgg {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };
  std::map<std::string, FlowAgg> flows;
  for (const TraceFrame& f : trace.frames()) {
    if (f.point != net::MirrorPoint::kIngress) continue;
    p4::PacketContext ctx;
    ctx.data = f.bytes;
    if (!p4::parse(ctx)) continue;
    const p4::ParsedHeaders& hdr = ctx.hdr;
    if (!hdr.ipv4_valid ||
        !(hdr.tcp_valid || hdr.udp_valid || hdr.icmp_valid)) {
      continue;
    }
    // The parser leaves the checksum to the MAU; outside input is
    // checked here (a valid header's ones'-complement sum is 0).
    if (net::internet_checksum(ctx.data.subspan(
            net::kEthernetHeaderBytes, hdr.ipv4.header_bytes())) != 0) {
      continue;
    }
    char key[96];
    const char* proto = hdr.tcp_valid    ? "tcp"
                        : hdr.quic_valid ? "quic"
                        : hdr.udp_valid  ? "udp"
                                         : "ip";
    const std::uint16_t src_port = hdr.tcp_valid   ? hdr.tcp.src_port
                                   : hdr.udp_valid ? hdr.udp.src_port
                                                   : 0;
    const std::uint16_t dst_port = hdr.tcp_valid   ? hdr.tcp.dst_port
                                   : hdr.udp_valid ? hdr.udp.dst_port
                                                   : 0;
    std::snprintf(key, sizeof(key), "%s %s:%u -> %s:%u", proto,
                  net::to_string(hdr.ipv4.src).c_str(), src_port,
                  net::to_string(hdr.ipv4.dst).c_str(), dst_port);
    FlowAgg& agg = flows[key];
    ++agg.frames;
    agg.bytes += f.orig_len;
  }
  std::vector<std::pair<std::string, FlowAgg>> ranked(flows.begin(),
                                                      flows.end());
  // Bytes descending; the map key (already sorted) breaks ties so the
  // listing is deterministic.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.bytes > b.second.bytes;
                   });
  out << "flows: " << ranked.size() << " (top " << std::min(top_n, ranked.size())
      << " by bytes, ingress frames only)\n";
  for (std::size_t i = 0; i < ranked.size() && i < top_n; ++i) {
    out << "  " << ranked[i].first << ": " << ranked[i].second.frames
        << " frames, " << ranked[i].second.bytes << " bytes\n";
  }
}

int cmd_stats(const util::CliArgs& args,
              const std::vector<std::string>& files, std::ostream& out,
              std::ostream& err) {
  const std::uint64_t top_flows = args.uint_or("flows", 10);
  telemetry::HistogramEngineConfig hc;
  hc.histogram.bins = args.uint_or("bins", 32);
  hc.histogram.min = args.number_or("hist-min-us", 10.0) * 1e3;   // -> ns
  hc.histogram.max = args.number_or("hist-max-ms", 1000.0) * 1e6;  // -> ns
  if (flag_errors(args, err)) return 2;
  const TraceReplayer trace = TraceReplayer::from_files(
      files[0], files.size() > 1 ? files[1] : "");
  if (args.has("histogram")) {
    return render_histogram(trace, args, hc, out, err);
  }
  const auto s = trace.analyze();
  out << "frames: " << s.frames << " (ingress " << s.ingress_frames
      << ", egress " << s.egress_frames << ")\n"
      << "bytes: " << s.captured_bytes << " captured, " << s.wire_bytes
      << " on the wire\n";
  if (s.frames > 0) {
    out << "time span: " << fmt_seconds(s.first_ts) << "s .. "
        << fmt_seconds(s.last_ts) << "s\n";
  }
  out << "ipv4: " << s.ipv4 << " (tcp " << s.tcp << ", udp " << s.udp
      << ", icmp " << s.icmp << ", other " << s.other_l4 << ")\n";
  if (s.quic > 0) {
    out << "quic: " << s.quic << " (long-header " << s.quic_long
        << ", short-header " << (s.quic - s.quic_long) << ")\n";
  }
  out << "tolerated: non-ipv4 " << s.non_ipv4 << ", ipv4-options "
      << s.ipv4_options << ", with-payload " << s.with_payload
      << ", undecodable " << s.undecodable << "\n"
      << "ethertypes:\n";
  for (const auto& [ethertype, count] : s.ethertypes) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "0x%04x", ethertype);
    out << "  " << buf << ": " << count << "\n";
  }
  if (args.has("flows")) {
    print_top_flows(trace, top_flows, out);
  }
  return 0;
}

int cmd_replay(const util::CliArgs& args,
               const std::vector<std::string>& files, std::ostream& out,
               std::ostream& err) {
  ReplayPipeline::Config config;
  config.seed = args.uint_or("seed", 1);
  config.control.core_buffer_bytes = args.uint_or("buffer-bytes", 0);
  config.control.bottleneck_bps = args.uint_or("bottleneck-bps", 0);
  const double sps = args.number_or("samples-per-second", 1.0);
  const std::uint64_t runout_seconds = args.uint_or("runout-seconds", 3);
  if (flag_errors(args, err)) return 2;
  if (!std::isfinite(sps) || sps <= 0.0) {
    out << "error: --samples-per-second must be a finite value > 0\n";
    return 2;
  }
  const TraceReplayer trace = TraceReplayer::from_files(
      files[0], files.size() > 1 ? files[1] : "");
  const auto stats = trace.analyze();

  if (auto program_file = args.get("program")) {
    std::ifstream in(*program_file);
    if (!in) {
      out << "error: cannot read program file '" << *program_file << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      config.programs.push_back(mpl::compile_program_text(text.str(), ""));
    } catch (const std::exception& e) {
      out << "error: " << *program_file << ": " << e.what() << "\n";
      return 2;
    }
    out << "installed program '" << config.programs.back().name << "'\n";
  }
  ReplayPipeline pipeline(config);
  for (std::string_view metric : cp::kPaperMetrics) {
    pipeline.control_plane().set_samples_per_second(metric, sps);
  }

  pipeline.run(trace, stats.last_ts + units::seconds(runout_seconds));

  out << "replayed " << stats.frames << " frames\n"
      << "processed: " << pipeline.p4_switch().processed_pkts()
      << ", parse errors: " << pipeline.p4_switch().parse_errors() << "\n"
      << "reports emitted: " << pipeline.control_plane().reports_emitted()
      << "\n";
  if (args.has("print-reports")) {
    for (const auto& line : pipeline.report_lines()) out << line << "\n";
  }
  return 0;
}

}  // namespace

int trace_cli(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  const util::CliArgs args(
      argc, argv,
      {"samples-per-second", "seed", "runout-seconds", "buffer-bytes",
       "bottleneck-bps", "histogram", "bins", "hist-min-us", "hist-max-ms",
       "program", "flows"},
      {"print-reports"});
  if (flag_errors(args, err)) {
    usage(err);
    return 2;
  }
  const auto& pos = args.positional();
  if (pos.empty()) {
    usage(err);
    return 2;
  }
  const std::string& command = pos[0];
  const std::vector<std::string> files(pos.begin() + 1, pos.end());
  try {
    if (command == "info") {
      if (files.empty()) {
        err << "p4s-trace info: at least one file required\n";
        return 2;
      }
      return cmd_info(files, out);
    }
    if (command == "stats" || command == "replay") {
      if (files.empty() || files.size() > 2) {
        err << "p4s-trace " << command
            << ": expects <ingress.pcap> [<egress.pcap>]\n";
        return 2;
      }
      return command == "stats" ? cmd_stats(args, files, out, err)
                                : cmd_replay(args, files, out, err);
    }
  } catch (const PcapError& e) {
    err << "p4s-trace: " << e.what() << "\n";
    return 2;
  }
  err << "p4s-trace: unknown command '" << command << "'\n";
  usage(err);
  return 2;
}

}  // namespace p4s::trace
