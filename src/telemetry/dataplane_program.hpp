// The complete data-plane telemetry program — the paper's P4 pipeline —
// composed from the individual engines:
//
//   ingress-TAP copies: flow tracking (CMS promotion), byte/packet
//   counters, Algorithm 1 (RTT + loss), flight-size limitation
//   classification, IAT monitoring, FIN digests, eACK parking for the
//   queue monitor;
//   egress-TAP copies: TAP-pair matching -> per-packet queuing delay ->
//   per-flow queue registers + microburst state machine;
//   both: every registered PacketEngine (the optional switch-wide
//   histograms, spin-bit RTT and NIDS engines, and the measurement-
//   program VM), in registration order.
//
// The control plane talks to this object through the register-read,
// digest-drain and slot-release methods — nothing else, mirroring the
// driver API boundary of a real target.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "p4/hash.hpp"
#include "p4/p4_switch.hpp"
#include "p4/pipeline.hpp"
#include "p4/register.hpp"
#include "telemetry/field_view.hpp"
#include "telemetry/flow_counters.hpp"
#include "telemetry/flow_tracker.hpp"
#include "telemetry/histogram_engines.hpp"
#include "telemetry/iat_monitor.hpp"
#include "telemetry/int_export.hpp"
#include "telemetry/limit_classifier.hpp"
#include "telemetry/metric_engine.hpp"
#include "telemetry/nids_features.hpp"
#include "telemetry/packet_engine.hpp"
#include "telemetry/queue_monitor.hpp"
#include "telemetry/rtt_loss.hpp"
#include "telemetry/spin_rtt.hpp"
#include "telemetry/types.hpp"

namespace p4s::telemetry {

class DataPlaneProgram : public p4::P4Program {
 public:
  struct Config {
    FlowTracker::Config tracker;
    QueueMonitor::Config queue;
    LimitClassifier::Config limit;
    IatMonitor::Config iat;
    IntExporter::Config int_export;
    /// eACK register size (power of two); ablation knob.
    std::size_t eack_slots = kEackSlots;
    /// Switch-wide histogram engines (empty by default: the histogram
    /// stages exist only when configured, leaving the default pipeline
    /// untouched).
    std::vector<HistogramEngineConfig> histograms;
    /// Spin-bit RTT engine for encrypted QUIC traffic (absent by
    /// default, same gating rule as the histograms).
    std::optional<SpinRttEngineConfig> spin_rtt;
    /// Per-flow NIDS feature engine + threshold classifier (absent by
    /// default).
    std::optional<NidsFeatureEngineConfig> nids;
  };

  explicit DataPlaneProgram(Config config);
  DataPlaneProgram() : DataPlaneProgram(Config{}) {}

  void ingress(p4::PacketContext& ctx) override;

  // ---- Control-plane (driver) API -------------------------------------
  FlowTracker& tracker() { return tracker_; }
  const FlowTracker& tracker() const { return tracker_; }
  RttLossEngine& rtt_loss() { return rtt_loss_; }
  const RttLossEngine& rtt_loss() const { return rtt_loss_; }
  QueueMonitor& queue_monitor() { return queue_; }
  const QueueMonitor& queue_monitor() const { return queue_; }
  LimitClassifier& limit_classifier() { return limit_; }
  const LimitClassifier& limit_classifier() const { return limit_; }
  IatMonitor& iat_monitor() { return iat_; }
  const IatMonitor& iat_monitor() const { return iat_; }
  IntExporter& int_exporter() { return int_; }
  const IntExporter& int_exporter() const { return int_; }
  FlowCounters& counters() { return counters_; }
  const FlowCounters& counters() const { return counters_; }

  std::uint64_t bytes(std::uint16_t slot) const {
    return counters_.bytes(slot);
  }
  std::uint64_t packets(std::uint16_t slot) const {
    return counters_.packets(slot);
  }
  SimTime last_seen(std::uint16_t slot) const {
    return counters_.last_seen(slot);
  }
  SimTime first_seen(std::uint16_t slot) const {
    return counters_.first_seen(slot);
  }

  p4::DigestQueue<FlowFinDigest>& fin_digests() { return fin_digests_; }

  // ---- Engine registry ------------------------------------------------
  // The registry is the program's definition of "every engine": the
  // built-in stages register themselves in the constructor (in release
  // order), then the optional engines Config names, and slot recycling
  // iterates the list, so an engine added here — or registered
  // externally by an extension — cannot be missed.
  const std::vector<MetricEngine*>& engines() const { return engines_; }

  /// Registered engines of type E in registration order — e.g. the
  /// configured histograms (engines_of<HistogramEngine>(), config
  /// order) or the spin-bit engine (empty unless configured).
  template <typename E>
  std::vector<E*> engines_of() const {
    std::vector<E*> found;
    for (MetricEngine* engine : engines_) {
      if (auto* typed = dynamic_cast<E*>(engine)) found.push_back(typed);
    }
    return found;
  }

  /// Register an additional engine. The program does not own it; the
  /// caller must keep it alive for the program's lifetime.
  void register_engine(MetricEngine& engine) { engines_.push_back(&engine); }

  /// Register an engine that also observes the per-packet FieldView
  /// stream (the measurement-program VM). Enrolls it in the MetricEngine
  /// registry too; same ownership rules as register_engine().
  void register_packet_engine(PacketEngine& engine) {
    register_engine(engine);
    packet_engines_.push_back(&engine);
  }

  /// True when every registered engine reports `slot` cleared — the
  /// invariant release_slot() establishes.
  bool slot_cleared(std::uint16_t slot) const;

  /// Total digest backlog across all registered engines.
  std::size_t pending_digests() const;

  /// Release a slot: every registered engine clears its state for it.
  void release_slot(std::uint16_t slot);

  std::uint64_t ingress_copies() const { return ingress_copies_; }
  std::uint64_t egress_copies() const { return egress_copies_; }

 private:
  void process_measurement_path(const FieldView& view);

  static net::FiveTuple tuple_from(const p4::ParsedHeaders& hdr);
  static std::uint32_t packet_signature(
      const std::array<std::uint8_t, 13>& tuple_key,
      const p4::ParsedHeaders& hdr);

  /// Hash inputs for the current packet's tuple, memoized across copies:
  /// the ingress-TAP and egress-TAP copies of the same packet arrive
  /// back-to-back, so the second copy reuses the key bytes and both CRCs.
  const p4::FlowKey& flow_key_for(const net::FiveTuple& tuple);

  FlowTracker tracker_;
  RttLossEngine rtt_loss_;
  QueueMonitor queue_;
  LimitClassifier limit_;
  IatMonitor iat_;
  IntExporter int_;
  FlowCounters counters_;
  // The optional engines Config names (none by default).
  std::vector<std::unique_ptr<PacketEngine>> optional_engines_;

  std::vector<MetricEngine*> engines_;
  std::vector<PacketEngine*> packet_engines_;
  p4::DigestQueue<FlowFinDigest> fin_digests_;

  p4::FlowKey memo_{};
  bool memo_valid_ = false;

  std::uint64_t ingress_copies_ = 0;
  std::uint64_t egress_copies_ = 0;
};

}  // namespace p4s::telemetry
