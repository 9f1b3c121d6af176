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

struct TapTarget {
  net::LegacySwitch* sw = nullptr;
  net::OutputPort* port = nullptr;
  std::uint64_t rate_bps = 0;
};

TapTarget resolve_tap(net::PaperTopology& topology, TapPoint tap) {
  switch (tap) {
    case TapPoint::kCoreBottleneck:
      return {topology.core_switch, topology.bottleneck_port,
              topology.config.bottleneck_bps};
    case TapPoint::kWanExt0:
      return {topology.wan_switch, topology.ext_dtn_links[0].forward,
              topology.config.access_bps};
    case TapPoint::kWanExt1:
      return {topology.wan_switch, topology.ext_dtn_links[1].forward,
              topology.config.access_bps};
    case TapPoint::kWanExt2:
      return {topology.wan_switch, topology.ext_dtn_links[2].forward,
              topology.config.access_bps};
  }
  throw std::invalid_argument("unknown tap point");
}

/// Fill control-plane knowledge of the monitored switch from the tapped
/// port unless the caller overrode it.
cp::ControlPlaneConfig site_control_config(net::PaperTopology& topology,
                                           const MonitoredSwitchConfig& site,
                                           cp::ControlPlaneConfig config) {
  const TapTarget target = resolve_tap(topology, site.tap);
  if (config.core_buffer_bytes == 0) {
    config.core_buffer_bytes = target.port->queue().capacity_bytes();
  }
  if (config.bottleneck_bps == 0) config.bottleneck_bps = target.rate_bps;
  config.switch_id = site.id;
  return config;
}

}  // namespace

// The mirror pipeline's components read their timestamps (P4 ingress_ts,
// pcap records) from the pipeline clock: the main timeline when serial,
// the shard-advanced pipeline clock when parallel — both sit at the
// frame's delivery time at delivery, so outputs are identical.
MonitoredSwitch::MonitoredSwitch(
    sim::Simulation& sim, net::PaperTopology& topology,
    const MonitoredSwitchConfig& config,
    const telemetry::DataPlaneProgram::Config& program_config,
    cp::ControlPlaneConfig control_config,
    const TraceCaptureConfig& trace_config,
    const std::vector<mpl::Program>& fabric_programs, SimTime tap_latency,
    std::size_t index, sim::Simulation* pipeline_sim)
    : trace::SitePipeline(
          sim, pipeline_sim != nullptr ? *pipeline_sim : sim,
          config.id.empty() ? "tofino-monitor" : "tofino-" + config.id,
          program_config,
          site_control_config(topology, config, std::move(control_config)),
          fabric_programs, config.programs),
      config_(config) {
  // With capture enabled the TAPs feed a pcap-writing tee that forwards
  // every mirrored frame to the P4 switch unchanged. Switch 0 keeps the
  // configured path_base (so existing captures stay byte-identical);
  // further switches get a per-site suffix.
  entry_sink_ = &p4_switch();
  if (trace_config.capture) {
    std::string path_base = trace_config.path_base;
    if (index > 0) {
      path_base +=
          "." + (config_.id.empty() ? std::to_string(index) : config_.id);
    }
    trace_capture_ = std::make_unique<trace::TraceCapture>(
        pipeline_sim != nullptr ? *pipeline_sim : sim, p4_switch(), path_base,
        trace::TraceCapture::Config{trace_config.snaplen});
    entry_sink_ = trace_capture_.get();
  }

  const TapTarget target = resolve_tap(topology, config_.tap);
  taps_ = std::make_unique<net::OpticalTapPair>(sim, *entry_sink_,
                                                tap_latency);
  taps_->attach(*target.sw, *target.port);
}

}  // namespace p4s::core
