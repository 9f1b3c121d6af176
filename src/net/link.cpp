#include "net/link.hpp"

#include <cassert>

namespace p4s::net {

Link::Link(sim::Simulation& sim, std::uint64_t bits_per_second, SimTime delay)
    : sim_(sim),
      rate_bps_(bits_per_second),
      delay_(delay),
      lane_(sim.events().add_lane([this]() { deliver_next(); })) {}

SimTime Link::transmit(const Packet& pkt) {
  assert(rate_bps_ > 0);
  const SimTime tx = units::transmission_time(pkt.wire_bytes(), rate_bps_);
  const SimTime done = sim_.now() + tx;
  const bool lost =
      loss_rate_ > 0.0 && sim_.rng().chance(loss_rate_);
  if (lost) {
    ++lost_pkts_;
  } else if (sink_ != nullptr) {
    in_flight_.push(pkt);
    sim_.events().schedule_lane(lane_, done + delay_);
  }
  return done;
}

void Link::deliver_next() {
  // The front packet stays put if the sink transmits on this link again.
  ++delivered_pkts_;
  sink_->on_packet(in_flight_.front());
  in_flight_.pop();
}

void OutputPort::enqueue(const Packet& pkt) {
  // Even on an idle link the packet formally passes through the queue, so
  // enqueue/dequeue statistics stay consistent.
  if (!queue_.try_enqueue(pkt, sim_.now())) return;  // drop-tail
  if (!transmitting_) start_next();
}

void OutputPort::start_next() {
  transmitting_ = true;
  sending_ = *queue_.dequeue();
  sim_.at(link_.transmit(sending_.pkt), [this]() { on_transmit_done(); });
}

void OutputPort::on_transmit_done() {
  for (const auto& hook : egress_hooks_) {
    hook(sending_.pkt, sim_.now() - sending_.enqueued_at);
  }
  transmitting_ = false;
  if (!queue_.empty()) start_next();
}

}  // namespace p4s::net
