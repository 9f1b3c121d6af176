#include "net/link.hpp"

#include <cassert>

namespace p4s::net {

SimTime Link::transmit(const Packet& pkt) {
  assert(rate_bps_ > 0);
  const SimTime tx = units::transmission_time(pkt.wire_bytes(), rate_bps_);
  const SimTime done = sim_.now() + tx;
  const bool lost =
      loss_rate_ > 0.0 && sim_.rng().chance(loss_rate_);
  if (lost) {
    ++lost_pkts_;
  } else if (sink_ != nullptr) {
    sim_.at(done + delay_, [this, pkt]() {
      ++delivered_pkts_;
      sink_->on_packet(pkt);
    });
  }
  return done;
}

void OutputPort::enqueue(const Packet& pkt) {
  if (!transmitting_) {
    // Link idle: the packet still formally passes through the queue so
    // enqueue/dequeue statistics stay consistent.
    if (queue_.try_enqueue(pkt, sim_.now())) {
      auto entry = queue_.dequeue();
      assert(entry.has_value());
      start_transmission(std::move(*entry));
    }
    return;
  }
  queue_.try_enqueue(pkt, sim_.now());  // drop-tail on failure
}

void OutputPort::start_transmission(DropTailQueue::Entry entry) {
  transmitting_ = true;
  const SimTime done = link_.transmit(entry.pkt);
  const SimTime queued_at = entry.enqueued_at;
  sim_.at(done, [this, pkt = std::move(entry.pkt), queued_at]() {
    for (const auto& hook : egress_hooks_) hook(pkt, sim_.now() - queued_at);
    on_transmit_done();
  });
}

void OutputPort::on_transmit_done() {
  transmitting_ = false;
  if (auto next = queue_.dequeue()) {
    start_transmission(std::move(*next));
  }
}

}  // namespace p4s::net
