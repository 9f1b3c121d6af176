// PacketEngine — a MetricEngine that additionally observes the per-packet
// stream through the shared FieldView accessor table.
//
// Only the seven Algorithm-1 stages are hard-wired into
// DataPlaneProgram::ingress with typed calls (they share the tracker's
// slot lookup). Every other engine — the optional histogram, spin-bit
// RTT and NIDS engines, and the measurement-program VM loaded at run
// time — is a PacketEngine: DataPlaneProgram builds one FieldView per
// parsed copy and hands it to every registered packet engine, in
// registration order — once for the copy itself (on_packet, where each
// engine picks the copies it measures) and, on the measurement path,
// once more with the tracked flow's slot (on_tracked_data), the exact
// point where the byte/packet counters update. Registration also
// enrolls the engine in the MetricEngine registry, so slot release and
// digest accounting cover it like any built-in stage.
#pragma once

#include <cstdint>

#include "telemetry/field_view.hpp"
#include "telemetry/metric_engine.hpp"

namespace p4s::telemetry {

class PacketEngine : public MetricEngine {
 public:
  /// Every parsed IPv4 copy, ingress-TAP and egress-TAP alike (the view's
  /// tap_point field tells them apart; egress copies carry the measured
  /// queue delay when the TAP pair matched). Runs after the built-in
  /// stages of the copy, so register state the built-ins exposed for this
  /// packet is already current.
  virtual void on_packet(const FieldView& view) { (void)view; }

  /// Measurement-path hook: a tracked flow's data packet passed the slot
  /// gate (same packets, same order as FlowCounters::on_data).
  virtual void on_tracked_data(std::uint16_t slot, const FieldView& view) {
    (void)slot;
    (void)view;
  }
};

}  // namespace p4s::telemetry
