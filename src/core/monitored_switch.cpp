#include "core/monitored_switch.hpp"

#include <stdexcept>
#include <utility>

namespace p4s::core {

const char* to_string(TapPoint point) {
  switch (point) {
    case TapPoint::kCoreBottleneck: return "core";
    case TapPoint::kWanExt0: return "wan_ext0";
    case TapPoint::kWanExt1: return "wan_ext1";
    case TapPoint::kWanExt2: return "wan_ext2";
  }
  return "?";
}

TapPoint tap_point_from_name(const std::string& name) {
  if (name == "core") return TapPoint::kCoreBottleneck;
  if (name == "wan_ext0") return TapPoint::kWanExt0;
  if (name == "wan_ext1") return TapPoint::kWanExt1;
  if (name == "wan_ext2") return TapPoint::kWanExt2;
  throw std::invalid_argument("unknown tap point: " + name);
}

namespace {

/// Fill control-plane knowledge of the monitored switch from the tapped
/// port unless the caller overrode it.
cp::ControlPlaneConfig site_control_config(const TapTarget& tap,
                                           const MonitoredSwitchConfig& site,
                                           cp::ControlPlaneConfig config) {
  if (config.core_buffer_bytes == 0) {
    config.core_buffer_bytes = tap.port.queue().capacity_bytes();
  }
  if (config.bottleneck_bps == 0) config.bottleneck_bps = tap.rate_bps;
  config.switch_id = site.id;
  return config;
}

}  // namespace

// The mirror pipeline's components read their timestamps (P4 ingress_ts,
// pcap records) from the pipeline clock, which the shard parks at each
// frame's delivery time before handing the frame over.
MonitoredSwitch::MonitoredSwitch(
    sim::Simulation& sim, FabricExecutor& fabric, const TapTarget& tap,
    const MonitoredSwitchConfig& config,
    const telemetry::DataPlaneProgram::Config& program_config,
    cp::ControlPlaneConfig control_config,
    const TraceCaptureConfig& trace_config,
    const std::vector<mpl::Program>& fabric_programs, SimTime tap_latency,
    std::size_t index)
    : trace::SitePipeline(
          sim, pipeline_sim,
          config.id.empty() ? "tofino-monitor" : "tofino-" + config.id,
          program_config,
          site_control_config(tap, config, std::move(control_config)),
          fabric_programs, config.programs),
      config_(config) {
  // With capture enabled the TAPs feed a pcap-writing tee that forwards
  // every mirrored frame to the P4 switch unchanged. Switch 0 keeps the
  // configured path_base (so existing captures stay byte-identical);
  // further switches get a per-site suffix.
  net::MirrorSink* entry = &p4_switch();
  if (trace_config.capture) {
    std::string path_base = trace_config.path_base;
    if (index > 0) {
      path_base +=
          "." + (config_.id.empty() ? std::to_string(index) : config_.id);
    }
    trace_capture_ = std::make_unique<trace::TraceCapture>(
        pipeline_sim, p4_switch(), path_base,
        trace::TraceCapture::Config{trace_config.snaplen});
    entry = trace_capture_.get();
  }

  const std::size_t shard = fabric.add_switch(pipeline_sim, *entry);
  taps_ = std::make_unique<net::OpticalTapPair>(sim, fabric.boundary(shard),
                                                tap_latency);
  taps_->attach(tap.sw, tap.port);
  // Driver reads and program changes see exactly the copies delivered
  // before the current time (a tick armed a full interval earlier runs
  // before a same-time copy mirrored only tap_latency earlier).
  control_plane().set_driver_sync([&fabric, shard]() { fabric.sync(shard); });
}

}  // namespace p4s::core
