#include "quic/sender.hpp"

#include <algorithm>
#include <vector>

namespace p4s::quic {

QuicSender::QuicSender(sim::Simulation& sim, net::Host& host,
                       net::Ipv4Address dst, std::uint16_t src_port,
                       std::uint16_t dst_port, Config config)
    : sim_(sim),
      host_(host),
      dst_ip_(dst),
      src_port_(src_port),
      dst_port_(dst_port),
      config_(config),
      rtt_(config.rtt),
      rto_timer_(sim.events(), [this]() { on_rto_expired(); }) {
  unbounded_ = config_.bytes_to_send == 0;
  target_bytes_ = unbounded_ ? ~0ULL : config_.bytes_to_send;
  host_.bind(net::Protocol::kUdp, src_port_,
             [this](const net::Packet& pkt) { on_packet(pkt); });
}

QuicSender::~QuicSender() {
  host_.unbind(net::Protocol::kUdp, src_port_);
}

net::FiveTuple QuicSender::five_tuple() const {
  return net::FiveTuple{host_.ip(), dst_ip_, src_port_, dst_port_,
                        static_cast<std::uint8_t>(net::Protocol::kUdp)};
}

void QuicSender::start() {
  if (state_ != State::kIdle) return;
  state_ = State::kHandshake;
  stats_.start_time = sim_.now();
  send_initial(/*retransmit=*/false);
}

void QuicSender::stop() {
  if (state_ == State::kClosed) return;
  if (!unbounded_) return;  // bounded transfers close themselves
  unbounded_ = false;
  target_bytes_ = next_offset_;
  if (state_ == State::kEstablished && !fin_sent_) {
    // All offered data is out; close with a pure-FIN packet.
    send_stream_packet(next_offset_, 0, /*fin=*/true, /*retransmit=*/false);
    fin_sent_ = true;
  }
}

void QuicSender::send_initial(bool retransmit) {
  net::QuicHeader hdr;
  hdr.long_form = true;
  hdr.type = 0;  // Initial
  hdr.dcid = config_.peer_cid;
  hdr.scid = config_.my_cid;
  const std::uint32_t pn = next_pn_++;
  hdr.packet_number = pn;
  inflight_[pn] = SentPacket{0, 0, false, /*initial=*/true, sim_.now()};
  ++stats_.packets_sent;
  if (retransmit) ++stats_.handshake_retx;
  host_.send(net::make_quic_packet(host_.ip(), dst_ip_, src_port_,
                                   dst_port_, hdr,
                                   config_.handshake_payload_bytes));
  rto_timer_.arm(rtt_.rto());
}

void QuicSender::on_packet(const net::Packet& pkt) {
  if (!pkt.is_quic() || state_ == State::kIdle || state_ == State::kClosed)
    return;
  if (pkt.quic.dcid != config_.my_cid) return;

  if (!pkt.quic.long_form) {
    const std::uint32_t pn = pkt.quic.packet_number;
    if (!any_server_short_ || pn > largest_server_pn_) {
      largest_server_pn_ = pn;
      server_spin_ = pkt.quic.spin;
      any_server_short_ = true;
    }
  } else if (state_ == State::kHandshake) {
    state_ = State::kEstablished;
    stats_.established_time = sim_.now();
  }

  if (pkt.quic_frames.has_ack) process_ack(pkt.quic_frames);
  if (state_ == State::kEstablished) try_send();
  maybe_finish();
}

void QuicSender::process_ack(const net::QuicFrames& frames) {
  bool newly_acked = false;
  std::uint32_t largest_newly = 0;
  SimTime largest_sent_at = 0;
  for (std::uint8_t i = 0; i < frames.ack_count; ++i) {
    const net::QuicAckRange& r = frames.ack[i];
    auto it = inflight_.lower_bound(r.start);
    while (it != inflight_.end() && it->first <= r.end) {
      const SentPacket& sp = it->second;
      stats_.bytes_acked += sp.len;
      flight_bytes_ -= sp.len;
      if (sp.fin) fin_acked_ = true;
      if (!newly_acked || it->first > largest_newly) {
        largest_newly = it->first;
        largest_sent_at = sp.sent_at;
      }
      newly_acked = true;
      it = inflight_.erase(it);
    }
    if (!any_acked_ || r.end > largest_acked_) {
      largest_acked_ = r.end;
      any_acked_ = true;
    }
  }
  if (!newly_acked) return;
  // Packet numbers are never reused, so every sample is unambiguous —
  // no Karn rule needed. Sample from the largest newly-acked packet.
  rtt_.add_sample(sim_.now() - largest_sent_at);
  detect_losses(largest_acked_);
  if (inflight_.empty()) {
    rto_timer_.disarm();
  } else {
    rto_timer_.arm(rtt_.rto());
  }
}

void QuicSender::detect_losses(std::uint32_t largest_acked) {
  if (largest_acked < config_.packet_threshold) return;
  const std::uint32_t lost_below = largest_acked - config_.packet_threshold;
  std::vector<SentPacket> lost;
  auto it = inflight_.begin();
  while (it != inflight_.end() && it->first < lost_below) {
    lost.push_back(it->second);
    flight_bytes_ -= it->second.len;
    ++stats_.lost_packets;
    it = inflight_.erase(it);
  }
  for (const SentPacket& sp : lost) {
    if (sp.initial) {
      send_initial(/*retransmit=*/true);
    } else {
      send_stream_packet(sp.offset, sp.len, sp.fin, /*retransmit=*/true);
    }
  }
}

void QuicSender::try_send() {
  if (state_ != State::kEstablished) return;
  while (next_offset_ < target_bytes_ &&
         flight_bytes_ + config_.mss <= config_.window_bytes) {
    const std::uint64_t remaining = target_bytes_ - next_offset_;
    const std::uint32_t len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss, remaining));
    const bool fin = !unbounded_ && next_offset_ + len == target_bytes_;
    send_stream_packet(next_offset_, len, fin, /*retransmit=*/false);
    next_offset_ += len;
    stats_.stream_bytes_sent += len;
    if (fin) fin_sent_ = true;
  }
}

void QuicSender::send_stream_packet(std::uint64_t offset, std::uint32_t len,
                                    bool fin, bool retransmit) {
  net::QuicHeader hdr;
  hdr.long_form = false;
  hdr.spin = current_spin();
  hdr.dcid = config_.peer_cid;
  const std::uint32_t pn = next_pn_++;
  hdr.packet_number = pn;
  if (!any_sent_short_ || hdr.spin != last_sent_spin_) {
    if (any_sent_short_) ++stats_.spin_flips;
    last_sent_spin_ = hdr.spin;
    any_sent_short_ = true;
  }
  net::Packet pkt = net::make_quic_packet(
      host_.ip(), dst_ip_, src_port_, dst_port_, hdr,
      len + config_.crypto_overhead_bytes);
  pkt.quic_frames.has_stream = true;
  pkt.quic_frames.stream_offset = offset;
  pkt.quic_frames.stream_len = len;
  pkt.quic_frames.stream_fin = fin;
  inflight_[pn] = SentPacket{offset, len, fin, false, sim_.now()};
  flight_bytes_ += len;
  ++stats_.packets_sent;
  if (retransmit) ++stats_.retransmitted_packets;
  host_.send(std::move(pkt));
  rto_timer_.arm(rtt_.rto());
}

void QuicSender::maybe_finish() {
  if (state_ != State::kEstablished) return;
  if (!fin_sent_ || !fin_acked_ || !inflight_.empty()) return;
  state_ = State::kClosed;
  stats_.end_time = sim_.now();
  rto_timer_.disarm();
  if (on_complete_) on_complete_();
}

void QuicSender::on_rto_expired() {
  if (inflight_.empty() || state_ == State::kClosed) return;
  ++stats_.rto_count;
  rtt_.backoff();
  // Retransmit the oldest outstanding packet under a fresh number; the
  // rest follow via threshold detection once acks resume.
  const std::uint32_t oldest = inflight_.begin()->first;
  resend(oldest);
  rto_timer_.arm(rtt_.rto());
}

void QuicSender::resend(std::uint32_t old_pn) {
  auto it = inflight_.find(old_pn);
  if (it == inflight_.end()) return;
  const SentPacket sp = it->second;
  flight_bytes_ -= sp.len;
  inflight_.erase(it);
  if (sp.initial) {
    send_initial(/*retransmit=*/true);
  } else {
    send_stream_packet(sp.offset, sp.len, sp.fin, /*retransmit=*/true);
  }
}

}  // namespace p4s::quic
