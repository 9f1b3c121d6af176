// NidsFeatureEngine — P4-NIDS-style per-flow feature extraction with a
// threshold classifier for volumetric attacks.
//
// Computes, per bidirectional flow (canonical key: the smaller of the
// two direction hashes first), the classic NIDS feature vector:
// packet/byte counts in both directions, running mean/variance of
// inter-arrival time and packet length (Welford, single pass — the
// register-friendly formulation), TCP flag counts, and flow duration.
// Features leave the switch as periodic digests ("nids_features"
// documents) drained by the control plane's digest poll.
//
// On top of the per-window aggregates a threshold classifier tags the
// adversarial workloads src/workload generates:
//   * SYN flood — window SYN count over threshold while the SYN-ACK
//     response ratio collapses (spoofed sources never complete);
//   * port scan — one source touching many distinct destination ports
//     with SYNs inside the window.
// Verdicts are emitted as "nids_alert" documents, which ride the same
// report path into the archive (query: report=nids_alert).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "telemetry/packet_engine.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace p4s::telemetry {

struct NidsFeatureEngineConfig {
  /// Maximum tracked bidirectional flows; beyond it new flows are
  /// counted but not tracked (bounded state, like the cuckoo table).
  std::size_t max_flows = 4096;
  /// SYN-flood verdict: at least this many SYNs in one digest window...
  std::uint64_t syn_flood_syns = 200;
  /// ...with SYNs outnumbering SYN-ACKs by at least this factor.
  double syn_flood_ratio = 3.0;
  /// Port-scan verdict: one source SYNing at least this many distinct
  /// destination ports within the window.
  std::size_t port_scan_ports = 20;
  /// Emit a feature digest only for flows with at least this many
  /// packets in the window (keeps idle-flow noise out of the archive).
  std::uint64_t min_window_packets = 1;
  /// Classifier window length. The control plane polls digests every
  /// few milliseconds; drains before the window has elapsed return
  /// nothing so thresholds apply to a meaningful aggregation interval.
  /// Zero means every drain closes a window (unit-test mode).
  SimTime window = units::seconds(1);
};

class NidsFeatureEngine final : public PacketEngine {
 public:
  explicit NidsFeatureEngine(const NidsFeatureEngineConfig& config);

  void on_packet(const FieldView& view) override;

  /// Drain one digest window: per-flow feature documents for flows that
  /// saw traffic since the previous drain, then classifier alerts.
  /// Resets the window counters (flow rows persist for duration/totals).
  std::vector<util::Json> drain_digests(SimTime now);

  std::uint64_t untracked_flows() const { return untracked_flows_; }
  std::uint64_t alerts_emitted() const { return alerts_emitted_; }

  // ---- MetricEngine ---------------------------------------------------
  // Keyed by its own canonical flow hash, not by tracker slots.
  std::string_view name() const override { return "nids_features"; }
  void clear_slot(std::uint16_t) override {}
  bool slot_cleared(std::uint16_t) const override { return true; }

 private:
  /// Single-pass mean/variance accumulator (Welford).
  struct Welford {
    std::uint64_t count = 0;
    double mean = 0.0;
    double m2 = 0.0;

    void add(double x) {
      ++count;
      const double d = x - mean;
      mean += d / static_cast<double>(count);
      m2 += d * (x - mean);
    }
    double variance() const {
      return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
    }
  };

  struct FlowRow {
    net::FiveTuple tuple;  // forward-direction 5-tuple (first seen wins)
    bool fwd_is_lower_hash = false;  // which direction `tuple` is
    std::uint64_t fwd_pkts = 0, fwd_bytes = 0;
    std::uint64_t rev_pkts = 0, rev_bytes = 0;
    std::uint64_t syn = 0, synack = 0, fin = 0, rst = 0, psh = 0, ack = 0;
    Welford iat_us;  // inter-arrival time, microseconds
    Welford len;     // IPv4 total length, bytes
    SimTime first_ts = 0;
    SimTime last_ts = 0;
    std::uint64_t window_pkts = 0;  // reset every drain
  };

  /// Per-source SYN fan-out inside the current window (port scans).
  struct ScanRow {
    std::vector<std::uint16_t> ports;  // distinct, capped
    net::Ipv4Address last_dst = 0;
    std::uint64_t syns = 0;
  };

  NidsFeatureEngineConfig config_;
  std::unordered_map<std::uint64_t, FlowRow> flows_;
  std::uint64_t untracked_flows_ = 0;

  // Window state for the classifier, reset on every drain.
  std::uint64_t window_syns_ = 0;
  std::uint64_t window_synacks_ = 0;
  std::unordered_map<net::Ipv4Address, std::uint64_t> syn_dst_counts_;
  std::unordered_map<net::Ipv4Address, ScanRow> scan_rows_;
  std::uint64_t alerts_emitted_ = 0;
  SimTime window_start_ = 0;
};

}  // namespace p4s::telemetry
