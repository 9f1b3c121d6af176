// SpinRttEngine — passive RTT measurement for encrypted QUIC traffic
// from the latency spin bit (RFC 9000 §17.4).
//
// TCP RTT monitoring (Algorithm 1, the eACK table) matches sequence
// numbers against cleartext ACKs; QUIC encrypts its ACK frames, so the
// only RTT signal a mid-path observer has is the spin bit: the client
// inverts it once per RTT and the server reflects it, so in EACH
// direction the observable bit flips once per round trip. The engine
// keys a direct-mapped table by DCID (the only connection identifier a
// short header exposes), timestamps spin-edge transitions and reports
// the edge-to-edge gap as an RTT sample.
//
// The spin signal is fragile in exactly two ways the RFC warns about,
// and the engine carries a rejection heuristic for each:
//   * reordering — a packet from before the edge arriving after it
//     would look like an immediate second edge; edges are accepted only
//     from packets advancing the per-DCID largest packet number;
//   * loss of the toggling packet — the edge then appears one RTT late
//     and the gap doubles; samples beyond `outlier_factor` times the
//     running EWMA (and below `rtt_floor_ns`) are rejected, and the
//     EWMA is updated only by accepted samples.
//
// Accepted samples feed a DDSketch for quantile export (the quic_rtt
// Report_v1 metric). Slot-free like the histogram engines: state is
// per-DCID, not per-flow-slot, and a colliding DCID evicts (counted).
#pragma once

#include <cstdint>

#include "p4/register.hpp"
#include "sketch/ddsketch.hpp"
#include "telemetry/packet_engine.hpp"
#include "util/units.hpp"

namespace p4s::telemetry {

struct SpinRttEngineConfig {
  /// Direct-mapped DCID table size (power of two).
  std::size_t slots = 1024;
  /// Reject samples below this (an edge pair closer than any plausible
  /// path RTT is reordering the pn-monotonic gate missed).
  SimTime rtt_floor_ns = units::microseconds(50);
  /// Reject samples above `outlier_factor` x the per-DCID EWMA (a lost
  /// toggling packet stretches the gap to ~2 RTT).
  double outlier_factor = 3.0;
  /// DDSketch parameters for the exported quantiles.
  double sketch_alpha = 0.01;
  std::size_t sketch_max_bins = 2048;
};

class SpinRttEngine final : public PacketEngine {
 public:
  explicit SpinRttEngine(const SpinRttEngineConfig& config);

  void on_packet(const FieldView& view) override;

  double quantile_ns(double q) const { return sketch_.quantile(q); }

  std::uint64_t samples() const { return samples_; }
  std::uint64_t edges() const { return edges_; }
  std::uint64_t rejected_reordered() const { return rejected_reordered_; }
  std::uint64_t rejected_outlier() const { return rejected_outlier_; }
  std::uint64_t rejected_floor() const { return rejected_floor_; }
  std::uint64_t collisions() const { return collisions_; }

  // ---- MetricEngine ---------------------------------------------------
  // Slot-free: per-DCID state, nothing keyed by flow slots.
  std::string_view name() const override { return "quic_rtt"; }
  void clear_slot(std::uint16_t) override {}
  bool slot_cleared(std::uint16_t) const override { return true; }

 private:
  struct Entry {
    std::uint64_t dcid = 0;
    bool valid = false;
    bool spin = false;
    bool have_edge = false;
    std::uint32_t largest_pn = 0;
    SimTime last_edge_ts = 0;
    double ewma_rtt_ns = 0.0;
  };

  SpinRttEngineConfig config_;
  p4::RegisterArray<Entry> table_;
  std::uint64_t mask_;
  sketch::DdSketch sketch_;
  std::uint64_t samples_ = 0;
  std::uint64_t edges_ = 0;
  std::uint64_t rejected_reordered_ = 0;
  std::uint64_t rejected_outlier_ = 0;
  std::uint64_t rejected_floor_ = 0;
  std::uint64_t collisions_ = 0;
};

}  // namespace p4s::telemetry
