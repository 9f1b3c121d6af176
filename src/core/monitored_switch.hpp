// MonitoredSwitch — one monitored site of the fabric: the site's
// measurement stack (a trace::SitePipeline: the P4 switch running the
// telemetry data-plane program, its VM and its control plane) fed by a
// passive TAP pair on a chosen switch/port of the shared topology,
// optionally through a pcap capture tee. MonitoringSystem owns N of
// these over one simulation and one report transport; the paper's
// single-switch deployment (Figures 3-5) is the N=1 case.
//
// The mirror path is the same in both execution modes: the TAP pair
// turns each copy into a net::MirrorFrame and hands it to entry_sink()
// through MirrorSink's one entry point. Only who delivers the frame
// differs — the TAP's own ring on the main timeline (serial), or a
// FabricExecutor shard on the pipeline timeline (parallel).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "net/tap.hpp"
#include "net/topology.hpp"
#include "trace/site_pipeline.hpp"
#include "trace/trace_capture.hpp"

namespace p4s::core {

/// Pcap capture of the TAP mirror streams (src/trace). When enabled, a
/// trace::TraceCapture tee is inserted between the optical TAP pair and
/// the P4 switch, writing `<path_base>.ingress.pcap` and
/// `<path_base>.egress.pcap` as the run executes. Additional monitored
/// switches capture to `<path_base>.<id>.{ingress,egress}.pcap`.
struct TraceCaptureConfig {
  bool capture = false;
  std::string path_base = "p4s-trace";
  std::uint32_t snaplen = trace::kDefaultSnaplen;
};

/// Where a monitored switch's TAP pair attaches in the Figure-8 topology.
enum class TapPoint {
  kCoreBottleneck = 0,  // core switch, bottleneck port (the paper's site)
  kWanExt0 = 1,         // WAN switch, access port toward external DTN 1
  kWanExt1 = 2,
  kWanExt2 = 3,
};

const char* to_string(TapPoint point);
/// Inverse of to_string ("core", "wan_ext0".."wan_ext2"); throws
/// std::invalid_argument on unknown names.
TapPoint tap_point_from_name(const std::string& name);

struct MonitoredSwitchConfig {
  /// Site identity stamped into the switch's Report_v1 stream as
  /// "switch_id". Empty = untagged (the legacy single-switch format).
  std::string id;
  TapPoint tap = TapPoint::kCoreBottleneck;
  /// Measurement programs (src/mpl) installed on this site's VM at
  /// construction, after any fabric-wide ones — a same-named site
  /// program replaces the fabric-wide install.
  std::vector<mpl::Program> programs;
};

class MonitoredSwitch : public trace::SitePipeline {
 public:
  /// `control_config`'s core_buffer_bytes / bottleneck_bps are filled
  /// from the tapped port when left 0; its switch_id is taken from
  /// `config.id`. `index` is the switch's position in the fabric (used
  /// for default capture paths and --switch indexing).
  ///
  /// `pipeline_sim` selects the execution mode. nullptr (serial): the
  /// whole site lives on `sim`, mirror deliveries included. Non-null
  /// (parallel fabric): the mirror pipeline — capture tee + P4 switch —
  /// is built on `pipeline_sim`, whose clock a FabricExecutor shard
  /// advances to each frame's delivery time on a worker thread; the
  /// TAPs and the control plane stay on `sim`. The caller wires
  /// entry_sink() and taps().set_boundary() to the executor.
  /// `fabric_programs` are installed on every site before the site's own
  /// config.programs.
  MonitoredSwitch(sim::Simulation& sim, net::PaperTopology& topology,
                  const MonitoredSwitchConfig& config,
                  const telemetry::DataPlaneProgram::Config& program_config,
                  cp::ControlPlaneConfig control_config,
                  const TraceCaptureConfig& trace_config,
                  const std::vector<mpl::Program>& fabric_programs,
                  SimTime tap_latency, std::size_t index,
                  sim::Simulation* pipeline_sim = nullptr);

  MonitoredSwitch(const MonitoredSwitch&) = delete;
  MonitoredSwitch& operator=(const MonitoredSwitch&) = delete;

  const std::string& id() const { return config_.id; }
  TapPoint tap_point() const { return config_.tap; }
  net::OpticalTapPair& taps() { return *taps_; }

  bool capturing() const { return trace_capture_ != nullptr; }
  trace::TraceCapture& trace_capture() { return *trace_capture_; }

  /// First sink of the mirror pipeline (the capture tee when capturing,
  /// else the P4 switch) — the shard's delivery target in parallel mode.
  net::MirrorSink& entry_sink() { return *entry_sink_; }

 private:
  MonitoredSwitchConfig config_;
  net::MirrorSink* entry_sink_ = nullptr;
  std::unique_ptr<trace::TraceCapture> trace_capture_;
  std::unique_ptr<net::OpticalTapPair> taps_;
};

}  // namespace p4s::core
