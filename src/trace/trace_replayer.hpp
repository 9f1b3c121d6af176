// TraceReplayer — feeds a recorded (or foreign) pcap trace straight into
// the P4 monitoring pipeline, with no TCP simulator behind it.
//
// A trace is the merged stream of the two capture ports (ingress TAP,
// egress TAP). replay() delivers it in one loop: before each frame, the
// simulation runs through the frame's recorded timestamp, so every event
// due at or before that nanosecond (control-plane extraction timers,
// digest polls) runs first. That is the live fabric's read rule — a
// control-plane read at time T sees exactly the copies due before T — so
// a captured run replays as it ran, and is a deterministic regression
// artifact.
//
// Real-world captures are first-class inputs: frames with payload bytes,
// IPv4 options or EtherTypes we never produce flow through the parser's
// tolerant paths — never a crash. analyze() classifies each frame with
// the same parser (p4::parse) that replay feeds, so its categories are
// exactly what the pipeline sees: `undecodable` equals the switch's
// parse errors on replay of the same frames.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "net/tap.hpp"
#include "trace/pcap.hpp"
#include "trace/site_pipeline.hpp"

namespace p4s::trace {

/// One frame of a merged trace: wire bytes plus capture metadata.
struct TraceFrame {
  SimTime ts = 0;
  net::MirrorPoint point = net::MirrorPoint::kIngress;
  std::uint32_t orig_len = 0;
  std::vector<std::uint8_t> bytes;
};

class TraceReplayer {
 public:
  /// What a trace contains, by the P4 parser's view of each frame. The
  /// counts partition the trace: frames == undecodable + non_ipv4 + ipv4,
  /// and ipv4 == tcp + udp + icmp + other_l4.
  struct Stats {
    std::uint64_t frames = 0;
    std::uint64_t ingress_frames = 0;
    std::uint64_t egress_frames = 0;
    std::uint64_t captured_bytes = 0;  // bytes stored in the trace
    std::uint64_t wire_bytes = 0;      // original on-wire bytes (orig_len)
    std::uint64_t ipv4 = 0;           // accepted with a valid IPv4 header
    std::uint64_t non_ipv4 = 0;       // accepted with only Ethernet extracted
    std::uint64_t ipv4_options = 0;   // IHL > 5: options skipped by the parser
    std::uint64_t with_payload = 0;   // total_len beyond the IPv4 + L4 headers
    std::uint64_t tcp = 0;
    std::uint64_t udp = 0;
    std::uint64_t quic = 0;       // UDP frames whose QUIC header the parser
                                  // extracted (the fixed 8-byte-CID shape)
    std::uint64_t quic_long = 0;  // of which long-header (handshake)
    std::uint64_t icmp = 0;
    std::uint64_t other_l4 = 0;       // unknown IP protocol
    std::uint64_t undecodable = 0;    // rejected by the parser: runt, bad
                                      // version/IHL, truncated options or L4
    /// EtherType of every frame with a full Ethernet header, rejected
    /// ones included.
    std::map<std::uint16_t, std::uint64_t> ethertypes;
    /// Earliest and latest record timestamps, whatever order the records
    /// are in (0 for an empty trace).
    SimTime first_ts = 0;
    SimTime last_ts = 0;
  };

  /// Load the ingress-port capture and (optionally) the egress-port
  /// capture and merge them into one stream ordered by timestamp; ties
  /// deliver the ingress-TAP frame first, matching the live TAP pair
  /// (the ingress mirror of a packet always precedes its egress mirror,
  /// and cross-packet same-nanosecond order is ingress-arrival first).
  /// Throws PcapError on unreadable or malformed files.
  static TraceReplayer from_files(const std::string& ingress_path,
                                  const std::string& egress_path = "");

  /// Build from frames already in memory (tests, synthetic workloads).
  /// Frames are delivered in the given order.
  static TraceReplayer from_frames(std::vector<TraceFrame> frames);

  const std::vector<TraceFrame>& frames() const { return frames_; }

  Stats analyze() const;

  /// Deliver the frames in order to `sink`, each with its recorded bytes
  /// and orig_len, exactly as the TAP delivered it live. Before a frame
  /// whose timestamp is ahead of now(), `sim` runs up to that timestamp
  /// (inclusive); a frame whose timestamp has passed lands at now().
  /// Stops before the first frame past `until`.
  void replay(sim::Simulation& sim, net::MirrorSink& sink,
              SimTime until = std::numeric_limits<SimTime>::max()) const;

 private:
  std::vector<TraceFrame> frames_;
};

/// ReplayPipeline — the monitoring stack without the network: a fresh
/// simulation driving one SitePipeline (assembled exactly like a live
/// site), whose Report_v1 documents are collected as dumped JSON lines
/// (in emission order, so two runs compare byte for byte).
class ReplayPipeline : public cp::ReportSink {
 public:
  struct Config {
    telemetry::DataPlaneProgram::Config program;
    cp::ControlPlaneConfig control;
    /// Measurement programs installed on the pipeline's VM before the
    /// run (p4s-trace replay --program <file.mpl.json>).
    std::vector<mpl::Program> programs;
    std::uint64_t seed = 1;
  };

  explicit ReplayPipeline(Config config);

  ReplayPipeline(const ReplayPipeline&) = delete;
  ReplayPipeline& operator=(const ReplayPipeline&) = delete;

  sim::Simulation& simulation() { return sim_; }
  telemetry::DataPlaneProgram& program() { return site_.program(); }
  p4::P4Switch& p4_switch() { return site_.p4_switch(); }
  cp::ControlPlane& control_plane() { return site_.control_plane(); }

  /// Report_v1 documents in emission order, one dumped JSON line each.
  const std::vector<std::string>& report_lines() const { return reports_; }

  /// Start the control-plane timers (configure sample rates first),
  /// replay the trace, and run the simulation until `until` (pick a
  /// horizon past the trace's last timestamp so idle-flow finalization
  /// fires like it did live).
  void run(const TraceReplayer& trace, SimTime until);

  void on_report(const util::Json& report) override;

 private:
  sim::Simulation sim_;
  SitePipeline site_;
  std::vector<std::string> reports_;
};

}  // namespace p4s::trace
