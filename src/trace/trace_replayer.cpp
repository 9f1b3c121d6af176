#include "trace/trace_replayer.hpp"

#include <algorithm>
#include <utility>

#include "p4/parser.hpp"

namespace p4s::trace {

namespace {

std::vector<TraceFrame> load_port(const std::string& path,
                                  net::MirrorPoint point) {
  std::vector<TraceFrame> frames;
  PcapReader reader(path);
  while (auto rec = reader.next()) {
    TraceFrame f;
    f.ts = rec->ts;
    f.point = point;
    f.orig_len = rec->orig_len;
    f.bytes = std::move(rec->bytes);
    frames.push_back(std::move(f));
  }
  return frames;
}

}  // namespace

TraceReplayer TraceReplayer::from_files(const std::string& ingress_path,
                                        const std::string& egress_path) {
  std::vector<TraceFrame> in = load_port(ingress_path,
                                         net::MirrorPoint::kIngress);
  std::vector<TraceFrame> eg;
  if (!egress_path.empty()) {
    eg = load_port(egress_path, net::MirrorPoint::kEgress);
  }
  // Two-pointer merge of the (per-file chronological) streams. On equal
  // timestamps the ingress frame goes first — <= keeps the merge stable
  // in the ingress stream's favor, reproducing the live TAP pair's order.
  std::vector<TraceFrame> merged;
  merged.reserve(in.size() + eg.size());
  std::size_t i = 0;
  std::size_t e = 0;
  while (i < in.size() && e < eg.size()) {
    if (in[i].ts <= eg[e].ts) {
      merged.push_back(std::move(in[i++]));
    } else {
      merged.push_back(std::move(eg[e++]));
    }
  }
  while (i < in.size()) merged.push_back(std::move(in[i++]));
  while (e < eg.size()) merged.push_back(std::move(eg[e++]));
  return from_frames(std::move(merged));
}

TraceReplayer TraceReplayer::from_frames(std::vector<TraceFrame> frames) {
  TraceReplayer r;
  r.frames_ = std::move(frames);
  return r;
}

TraceReplayer::Stats TraceReplayer::analyze() const {
  Stats s;
  for (const TraceFrame& f : frames_) {
    ++s.frames;
    if (f.point == net::MirrorPoint::kIngress) {
      ++s.ingress_frames;
    } else {
      ++s.egress_frames;
    }
    s.captured_bytes += f.bytes.size();
    s.wire_bytes += f.orig_len;
    s.first_ts = s.frames == 1 ? f.ts : std::min(s.first_ts, f.ts);
    s.last_ts = std::max(s.last_ts, f.ts);

    p4::PacketContext ctx;
    ctx.data = f.bytes;
    const bool accepted = p4::parse(ctx);
    const p4::ParsedHeaders& hdr = ctx.hdr;
    if (hdr.ethernet_valid) ++s.ethertypes[hdr.ethernet.ethertype];
    if (!accepted) {
      ++s.undecodable;
      continue;
    }
    if (!hdr.ipv4_valid) {
      ++s.non_ipv4;
      continue;
    }
    ++s.ipv4;
    if (hdr.ipv4.ihl > 5) ++s.ipv4_options;
    std::uint32_t l4_bytes = 0;
    if (hdr.tcp_valid) {
      ++s.tcp;
      l4_bytes = hdr.tcp.header_bytes();
    } else if (hdr.udp_valid) {
      ++s.udp;
      l4_bytes = hdr.udp.header_bytes();
      if (hdr.quic_valid) {
        ++s.quic;
        if (hdr.quic.long_form) ++s.quic_long;
      }
    } else if (hdr.icmp_valid) {
      ++s.icmp;
      l4_bytes = hdr.icmp.header_bytes();
    } else {
      ++s.other_l4;
      continue;
    }
    if (hdr.ipv4.total_len > hdr.ipv4.header_bytes() + l4_bytes) {
      ++s.with_payload;
    }
  }
  return s;
}

void TraceReplayer::replay(sim::Simulation& sim, net::MirrorSink& sink,
                           SimTime until) const {
  for (const TraceFrame& f : frames_) {
    if (f.ts > until) return;
    if (f.ts > sim.now()) sim.run_until(f.ts);
    sink.on_mirrored_bytes(f.bytes, f.point, f.orig_len);
  }
}

// ------------------------------------------------------------- pipeline

ReplayPipeline::ReplayPipeline(Config config)
    : sim_(config.seed),
      site_(sim_, sim_, "replay-p4", config.program, std::move(config.control),
            {}, config.programs) {
  site_.control_plane().set_sink(this);
}

void ReplayPipeline::on_report(const util::Json& report) {
  reports_.push_back(report.dump());
}

void ReplayPipeline::run(const TraceReplayer& trace, SimTime until) {
  site_.control_plane().start();
  trace.replay(sim_, site_.p4_switch(), until);
  sim_.run_until(until);
}

}  // namespace p4s::trace
