// The control-plane face of the optional data-plane engines.
//
// Each switch-wide histogram engine becomes one extraction timer named
// after the engine ("rtt_histogram", "queue_delay_histogram_core"...)
// and the spin-bit engine one named "quic_rtt", all through the same
// register_extractor() seam the four paper metrics use — so run-time
// rate configuration, alerting and boosting apply unchanged.
//   * histogram reports: headline p99 in milliseconds (the alertable
//     tail), annotated with p50/p95, the sample count and the full bins
//     for downstream dashboards;
//   * quic_rtt reports: headline median spin RTT in milliseconds — the
//     spin signal is noisy at the tail by construction, so the median is
//     the robust figure to compare against ground truth — annotated with
//     p95 and the sample and rejection counters.
// The NIDS feature engine exports through the digest path instead: its
// per-flow feature documents and classifier alerts are drained by the
// control plane's digest poll and shipped as reports (the archive tags
// attacks via report=nids_alert).
#pragma once

#include "controlplane/control_plane.hpp"
#include "telemetry/dataplane_program.hpp"

namespace p4s::cp {

/// Register the extractors and digest sources of every optional engine
/// `program` was built with, in registration order: histograms, then
/// quic_rtt, then the NIDS digest source (a no-op for the default
/// program). The program must outlive the control plane; throws like
/// register_extractor on duplicate names.
void register_engine_exports(ControlPlane& cp,
                             telemetry::DataPlaneProgram& program);

}  // namespace p4s::cp
