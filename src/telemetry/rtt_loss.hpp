// Algorithm 1 of the paper: RTT and packet-loss calculation in the data
// plane (adopted from Chen et al., "Measuring TCP round-trip time in the
// data plane").
//
// Data packets:
//  * sequence-number regression against prev_seq_register -> loss count
//    (a retransmission implies a lost packet);
//  * the expected future ACK number (eACK = seq + payload) is combined
//    with the reversed flow ID into a signature; the packet's arrival
//    timestamp is stored in eack_register at that signature.
// ACK packets:
//  * signature = (flow ID of the ACK packet, ack number); a hit in
//    eack_register yields RTT = now - stored timestamp.
//
// Deviation from the paper's pseudocode, documented here: the paper
// stores the measured RTT at rtt_register[flow_ID-of-the-ACK-packet]
// (the reversed flow), leaving the control plane to join IDs. We store
// it directly at the *data* flow's slot — the data plane already computes
// hash(reversed ACK tuple) == data-flow ID, so this is one extra hash and
// removes the join. Loss and RTT values are bitwise identical.
#pragma once

#include <cstdint>
#include <optional>

#include "p4/register.hpp"
#include "tcp/seq.hpp"
#include "telemetry/metric_engine.hpp"
#include "telemetry/types.hpp"

namespace p4s::telemetry {

class RttLossEngine : public MetricEngine {
 public:
  /// `eack_slots` must be a power of two (asserted); defaults to the
  /// paper-scale kEackSlots. Exposed for the register-sizing ablation
  /// bench.
  explicit RttLossEngine(std::size_t eack_slots = kEackSlots);

  struct DataPacketView {
    std::uint16_t slot;          // data flow's register slot
    std::uint32_t rev_flow_id;   // hash of the reversed 5-tuple
    std::uint32_t seq;
    std::uint32_t payload_bytes;
  };

  /// Process a data packet (Seq branch of Algorithm 1). Returns true if a
  /// packet loss (sequence regression) was counted.
  bool on_data_packet(const DataPacketView& view, SimTime now);

  struct AckPacketView {
    std::uint32_t ack_flow_id;  // hash of the ACK packet's 5-tuple
    std::uint16_t data_slot;    // slot of the data flow being acked
    std::uint32_t ack;
  };

  /// Process an ACK packet (ACK branch). Returns the RTT sample if the
  /// signature matched.
  std::optional<SimTime> on_ack_packet(const AckPacketView& view,
                                       SimTime now);

  // ---- Control-plane reads --------------------------------------------
  std::uint64_t losses(std::uint16_t slot) const {
    return pkt_loss_.cp_read(slot);
  }
  SimTime last_rtt(std::uint16_t slot) const { return rtt_.cp_read(slot); }

  // ---- MetricEngine ---------------------------------------------------
  std::string_view name() const override { return "rtt_loss"; }
  /// Reset a slot's state when a flow is released. (The eACK table is
  /// signature-indexed, not slot-indexed; stale entries age out by
  /// eviction and are excluded from the per-slot invariant.)
  void clear_slot(std::uint16_t slot) override;
  bool slot_cleared(std::uint16_t slot) const override {
    return prev_seq_.cp_read(slot) == 0 && prev_seq_valid_.cp_read(slot) == 0 &&
           pkt_loss_.cp_read(slot) == 0 && rtt_.cp_read(slot) == 0;
  }

  std::uint64_t eack_matches() const { return eack_matches_; }
  std::uint64_t eack_misses() const { return eack_misses_; }
  std::uint64_t eack_evictions() const { return eack_evictions_; }

 private:
  struct EackEntry {
    std::uint32_t check = 0;  // signature check word (detects collisions)
    SimTime ts = 0;
  };

  static std::uint32_t signature(std::uint32_t flow_id, std::uint32_t ackno);

  p4::RegisterArray<std::uint32_t> prev_seq_;
  p4::RegisterArray<std::uint8_t> prev_seq_valid_;
  p4::RegisterArray<std::uint64_t> pkt_loss_;
  p4::RegisterArray<SimTime> rtt_;
  p4::RegisterArray<EackEntry> eack_;
  std::uint32_t eack_mask_;
  std::uint64_t eack_matches_ = 0;
  std::uint64_t eack_misses_ = 0;
  std::uint64_t eack_evictions_ = 0;
};

}  // namespace p4s::telemetry
