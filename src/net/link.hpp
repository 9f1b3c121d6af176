// Unidirectional point-to-point link (bandwidth + propagation delay) and
// the output port that feeds it through a drop-tail queue.
//
// OutputPort is the unit the paper's queue monitor observes: a packet's
// time "inside the core switch" is the interval from its enqueue on the
// port to the end of its serialization onto the wire.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/packet.hpp"
#include "net/queue.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {

class Link {
 public:
  /// `bits_per_second` must be > 0. The sink may be set after construction
  /// (topology wiring is two-phase).
  Link(sim::Simulation& sim, std::uint64_t bits_per_second, SimTime delay)
      : sim_(sim), rate_bps_(bits_per_second), delay_(delay) {}

  void set_sink(PacketSink& sink) { sink_ = &sink; }

  /// Change the link rate at run time (mmWave blockage model). Takes
  /// effect for subsequent transmissions.
  void set_rate(std::uint64_t bits_per_second) { rate_bps_ = bits_per_second; }
  std::uint64_t rate_bps() const { return rate_bps_; }
  SimTime delay() const { return delay_; }

  /// Drop probability applied per transmission (network-impairment hook,
  /// Fig. 12 "network-limited" case). Default 0.
  void set_loss_rate(double p) { loss_rate_ = p; }
  double loss_rate() const { return loss_rate_; }

  /// Begin serializing `pkt` now; returns the time serialization finishes.
  /// The caller (OutputPort) guarantees one transmission at a time.
  /// Delivery to the sink happens at completion + propagation delay unless
  /// the loss gate fires.
  SimTime transmit(const Packet& pkt);

  std::uint64_t delivered_pkts() const { return delivered_pkts_; }
  std::uint64_t lost_pkts() const { return lost_pkts_; }

 private:
  sim::Simulation& sim_;
  std::uint64_t rate_bps_;
  SimTime delay_;
  double loss_rate_ = 0.0;
  PacketSink* sink_ = nullptr;
  std::uint64_t delivered_pkts_ = 0;
  std::uint64_t lost_pkts_ = 0;
};

/// Queue + transmitter attached to a Link. PacketSink-compatible so a
/// switch fabric or host stack can push packets into it directly.
class OutputPort : public PacketSink {
 public:
  OutputPort(sim::Simulation& sim, std::uint64_t queue_capacity_bytes,
             Link& link)
      : sim_(sim), queue_(queue_capacity_bytes), link_(link) {}

  void on_packet(const Packet& pkt) override { enqueue(pkt); }

  void enqueue(const Packet& pkt);

  const DropTailQueue& queue() const { return queue_; }

  /// Fired when a packet finishes serialization onto the wire; arguments
  /// are the packet and the queuing delay it experienced (enqueue ->
  /// serialization end). This is where the egress TAP attaches; several
  /// TAPs can observe the same port (one per monitored site in the
  /// fabric). Hooks fire in attachment order.
  void add_egress_hook(std::function<void(const Packet&, SimTime)> hook) {
    if (hook) egress_hooks_.push_back(std::move(hook));
  }

  Link& link() { return link_; }

 private:
  void start_transmission(DropTailQueue::Entry entry);
  void on_transmit_done();

  sim::Simulation& sim_;
  DropTailQueue queue_;
  Link& link_;
  bool transmitting_ = false;
  std::vector<std::function<void(const Packet&, SimTime)>> egress_hooks_;
};

}  // namespace p4s::net
