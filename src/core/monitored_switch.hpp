// MonitoredSwitch — one monitored site: the site's measurement stack (a
// trace::SitePipeline: the P4 switch running the telemetry data-plane
// program, its VM and its control plane) fed by a passive TAP pair on a
// given switch and port, optionally through a pcap capture tee.
// MonitoringSystem owns N of these over one simulation and one report
// transport; the paper's single-switch deployment (Figures 3-5) is the
// N=1 case, and a hand-built topology (the mmWave scenarios) builds one
// directly.
//
// There is one mirror path: the TAP pair on the tapped port (owned by
// the FabricExecutor and shared by every site on that port) turns each
// copy into a net::MirrorFrame and pushes it into this site's shard,
// which replays it on the site's pipeline clock into the capture tee or
// the P4 switch — on a worker thread, or on the main thread when the
// executor has none.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/fabric_executor.hpp"
#include "net/tap.hpp"
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

/// Fiber + TAP path from a mirror point to the monitor, unless configured.
inline constexpr SimTime kDefaultTapLatency = units::microseconds(1);

/// The switch and output port a site's TAP pair observes, and the port's
/// line rate (the control plane's default bottleneck rate).
struct TapTarget {
  net::LegacySwitch& sw;
  net::OutputPort& port;
  std::uint64_t rate_bps = 0;
};

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

namespace detail {
/// A site's pipeline clock, as a base so that it is built before the
/// SitePipeline whose P4 switch reads it. Only its clock is used: the
/// fabric shard advances it to each copy's delivery time, nothing is
/// ever scheduled on it, and nothing draws from its RNG.
struct PipelineClock {
  sim::Simulation pipeline_sim;
};
}  // namespace detail

class MonitoredSwitch : private detail::PipelineClock,
                        public trace::SitePipeline {
 public:
  /// The site's mirror pipeline — capture tee + P4 switch, on the site's
  /// own pipeline clock — is registered as one shard of `fabric` (call
  /// fabric.start() before running) and fed by `fabric`'s TAP pair on
  /// `tap`, shared with every other site on that port. The TAPs and the
  /// control plane stay on `sim`, the fabric's main simulation; the
  /// control plane's driver sync is the shard's barrier.
  ///
  /// `control_config`'s core_buffer_bytes / bottleneck_bps are filled
  /// from the tapped port when left 0; its switch_id is taken from
  /// `config.id`. `fabric_programs` are installed before the site's own
  /// config.programs. `index` is the switch's position in the fabric
  /// (used for default capture paths).
  MonitoredSwitch(sim::Simulation& sim, FabricExecutor& fabric,
                  const TapTarget& tap, const MonitoredSwitchConfig& config,
                  const telemetry::DataPlaneProgram::Config& program_config,
                  cp::ControlPlaneConfig control_config,
                  const TraceCaptureConfig& trace_config = {},
                  const std::vector<mpl::Program>& fabric_programs = {},
                  SimTime tap_latency = kDefaultTapLatency,
                  std::size_t index = 0);

  MonitoredSwitch(const MonitoredSwitch&) = delete;
  MonitoredSwitch& operator=(const MonitoredSwitch&) = delete;

  const std::string& id() const { return config_.id; }
  TapPoint tap_point() const { return config_.tap; }
  net::OpticalTapPair& taps() { return *taps_; }

  bool capturing() const { return trace_capture_ != nullptr; }
  trace::TraceCapture& trace_capture() { return *trace_capture_; }

 private:
  MonitoredSwitchConfig config_;
  std::unique_ptr<trace::TraceCapture> trace_capture_;
  net::OpticalTapPair* taps_;  // owned by the FabricExecutor
};

}  // namespace p4s::core
