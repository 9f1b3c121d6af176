#include "tcp/sender.hpp"

#include <algorithm>
#include <cassert>

#include "tcp/seq.hpp"

namespace p4s::tcp {

using net::tcpflags::kAck;
using net::tcpflags::kFin;
using net::tcpflags::kPsh;
using net::tcpflags::kSyn;

TcpSender::TcpSender(sim::Simulation& sim, net::Host& host,
                     net::Ipv4Address dst, std::uint16_t src_port,
                     std::uint16_t dst_port, Config config)
    : sim_(sim),
      host_(host),
      dst_ip_(dst),
      src_port_(src_port),
      dst_port_(dst_port),
      config_(std::move(config)),
      cc_(make_congestion_control(config_.congestion_control)),
      rtt_(config_.rtt),
      rto_timer_(sim.events(), [this]() { on_rto_expired(); }) {
  cc_->init(config_.mss,
            static_cast<std::uint64_t>(config_.initial_cwnd_segments) *
                config_.mss);
  // Deterministic per-connection ISN derived from the 4-tuple.
  isn_ = (static_cast<std::uint32_t>(src_port_) << 16) ^ dst_port_ ^
         host_.ip() ^ (dst_ip_ << 7) ^ 0x5A5A5A5Au;
  host_.bind(net::Protocol::kTcp, src_port_,
             [this](const net::Packet& pkt) { on_packet(pkt); });
}

TcpSender::~TcpSender() {
  host_.unbind(net::Protocol::kTcp, src_port_);
}

net::FiveTuple TcpSender::five_tuple() const {
  return net::FiveTuple{host_.ip(), dst_ip_, src_port_, dst_port_,
                        static_cast<std::uint8_t>(net::Protocol::kTcp)};
}

void TcpSender::start() {
  if (state_ != State::kIdle) return;
  stats_.start_time = sim_.now();
  tokens_refilled_at_ = sim_.now();
  send_syn();
}

void TcpSender::stop() {
  if (state_ == State::kClosed || stopping_) return;
  stopping_ = true;
  if (state_ == State::kEstablished) maybe_send_fin();
}

void TcpSender::send_syn() {
  state_ = State::kSynSent;
  net::Packet syn = net::make_tcp_packet(
      host_.ip(), dst_ip_, src_port_, dst_port_, isn_, 0, kSyn,
      /*payload=*/0, config_.advertised_window);
  host_.send(std::move(syn));
  rto_timer_.arm(rtt_.rto());
}

void TcpSender::on_packet(const net::Packet& pkt) {
  if (!pkt.is_tcp()) return;
  const net::TcpHeader& tcp = pkt.tcp();
  if (!tcp.has(kAck)) return;

  if (state_ == State::kSynSent) {
    if (tcp.has(kSyn) && tcp.ack == isn_ + 1) handle_syn_ack(pkt);
    return;
  }
  if (state_ == State::kEstablished || state_ == State::kFinSent) {
    handle_ack(pkt);
  }
}

void TcpSender::handle_syn_ack(const net::Packet& pkt) {
  state_ = State::kEstablished;
  stats_.established_time = sim_.now();
  snd_una_ = isn_ + 1;
  snd_nxt_ = isn_ + 1;
  una_off_ = 0;
  rwnd_ = pkt.tcp().window;
  rto_timer_.disarm();
  // The handshake RTT seeds the estimator (a retransmitted SYN would
  // inflate this one sample; it washes out).
  rtt_.add_sample(sim_.now() - stats_.start_time);
  try_send();
  if (stopping_ || config_.bytes_to_send != 0) maybe_send_fin();
}

// ---- SACK scoreboard ----------------------------------------------------

std::uint64_t TcpSender::offset_of(std::uint32_t seq) const {
  const auto rel =
      static_cast<std::int64_t>(static_cast<std::int32_t>(seq - snd_una_));
  const std::int64_t off = static_cast<std::int64_t>(una_off_) + rel;
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

std::uint32_t TcpSender::seq_of(std::uint64_t offset) const {
  return snd_una_ + static_cast<std::uint32_t>(offset - una_off_);
}

std::uint64_t TcpSender::merge_sack(const net::TcpHeader& tcp) {
  if (!config_.sack || tcp.sack_count == 0) return 0;
  const std::uint64_t before = sacked_bytes_;
  const std::uint64_t nxt = snd_nxt_off();
  for (std::uint8_t i = 0; i < tcp.sack_count; ++i) {
    std::uint64_t start = offset_of(tcp.sack[i].start);
    std::uint64_t end = offset_of(tcp.sack[i].end);
    start = std::max(start, una_off_);
    end = std::min(end, nxt);
    if (start >= end) continue;

    // Insert [start, end), merging overlaps.
    auto it = sacked_.lower_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        sacked_bytes_ -= prev->second - prev->first;
        sacked_.erase(prev);
      }
    }
    it = sacked_.lower_bound(start);
    while (it != sacked_.end() && it->first <= end) {
      end = std::max(end, it->second);
      sacked_bytes_ -= it->second - it->first;
      it = sacked_.erase(it);
    }
    sacked_[start] = end;
    sacked_bytes_ += end - start;
    highest_sacked_off_ = std::max(highest_sacked_off_, end);
  }
  return sacked_bytes_ - before;
}

std::uint64_t TcpSender::prune_sacked_below_una() {
  const std::uint64_t before = sacked_bytes_;
  auto it = sacked_.begin();
  while (it != sacked_.end() && it->first < una_off_) {
    if (it->second <= una_off_) {
      sacked_bytes_ -= it->second - it->first;
      it = sacked_.erase(it);
    } else {
      sacked_bytes_ -= una_off_ - it->first;
      sacked_[una_off_] = it->second;
      it = sacked_.erase(it);
      break;
    }
  }
  if (highest_sacked_off_ < una_off_) highest_sacked_off_ = una_off_;
  return before - sacked_bytes_;
}

void TcpSender::sack_retransmit() {
  if (!in_recovery_ || !config_.sack) return;
  if (retx_point_ < una_off_) retx_point_ = una_off_;
  // Bound the per-event burst: a real stack is ACK-clocked too.
  int budget = 64;
  while (budget-- > 0) {
    // Skip over SACKed ranges.
    auto it = sacked_.upper_bound(retx_point_);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > retx_point_) {
        retx_point_ = prev->second;
        continue;
      }
    }
    if (retx_point_ >= highest_sacked_off_) {
      // Every known hole was retransmitted once. If the cumulative ACK
      // still has not reached the recovery point, a retransmission was
      // itself lost: re-sweep the scoreboard, at most once per RTT (the
      // practical analogue of RFC 6675's rescue retransmission).
      if (una_off_ < recover_off_ && sim_.now() >= resweep_at_) {
        retx_point_ = una_off_;
        const SimTime rtt = rtt_.has_sample() ? rtt_.srtt()
                                              : units::milliseconds(100);
        resweep_at_ = sim_.now() + rtt;
        continue;
      }
      break;
    }
    if (pipe_bytes() + config_.mss > cc_->cwnd_bytes()) break;
    std::uint64_t hole_end = highest_sacked_off_;
    if (it != sacked_.end()) hole_end = std::min(hole_end, it->first);
    const std::uint64_t len64 =
        std::min<std::uint64_t>(config_.mss, hole_end - retx_point_);
    const auto len = static_cast<std::uint32_t>(len64);
    send_segment(seq_of(retx_point_), len, /*retransmit=*/true);
    retx_point_ += len;
  }
}

// ---- ACK processing ------------------------------------------------------

void TcpSender::handle_ack(const net::Packet& pkt) {
  const net::TcpHeader& tcp = pkt.tcp();
  const std::uint32_t ack = tcp.ack;
  rwnd_ = tcp.window;

  // FIN acknowledgment.
  if (state_ == State::kFinSent && ack == fin_seq_ + 1) {
    rto_timer_.disarm();
    finish();
    return;
  }

  if (seq_gt(ack, snd_nxt_)) return;  // acks data never sent

  const std::uint64_t newly_sacked = merge_sack(tcp);

  if (seq_gt(ack, snd_una_)) {
    const std::uint64_t acked = static_cast<std::uint32_t>(ack - snd_una_);
    on_new_ack(ack, acked, newly_sacked);
  } else if (ack == snd_una_ && flight_bytes() > 0) {
    on_dup_ack();
    if (newly_sacked > 0 && cc_->wants_ack_in_recovery()) {
      // Model-based CCAs: SACKed bytes are deliveries even without a
      // cumulative advance.
      cc_->on_ack(newly_sacked, sim_.now(),
                  rtt_.has_sample() ? rtt_.srtt() : 0,
                  rtt_.has_sample() ? rtt_.min_rtt() : 0);
    }
  }

  if (config_.sack) {
    maybe_enter_recovery();
    sack_retransmit();
  }
  try_send();
  if (stopping_ || config_.bytes_to_send != 0) maybe_send_fin();
}

void TcpSender::on_new_ack(std::uint32_t ack, std::uint64_t acked_bytes,
                           std::uint64_t newly_sacked) {
  una_off_ += acked_bytes;
  snd_una_ = ack;
  stats_.bytes_acked += acked_bytes;
  dupacks_ = 0;
  const std::uint64_t previously_sacked = prune_sacked_below_una();
  // Bytes that left the network with THIS ack: the cumulative advance
  // minus what had already been SACKed, plus fresh SACKs above una.
  const std::uint64_t delivered =
      acked_bytes - std::min(acked_bytes, previously_sacked) + newly_sacked;

  // RTT sample (Karn: invalidated on any retransmission).
  if (rtt_sample_pending_ && seq_ge(ack, rtt_sample_end_)) {
    rtt_.add_sample(sim_.now() - rtt_sample_sent_at_);
    rtt_sample_pending_ = false;
  }

  retx_outstanding_ -= std::min(retx_outstanding_, acked_bytes);

  if (in_recovery_) {
    const bool done = config_.sack ? una_off_ >= recover_off_
                                   : seq_ge(ack, recover_);
    if (done) {
      exit_recovery();
    } else {
      if (!config_.sack) {
        // NewReno partial ACK: the next hole is lost too; retransmit it
        // and deflate the inflation by the amount acked.
        retransmit_one(snd_una_);
        recovery_inflation_ -=
            std::min<std::uint64_t>(recovery_inflation_, acked_bytes);
      }
      if (rto_recovery_ || cc_->wants_ack_in_recovery()) {
        // Timeout recovery runs in slow start (window regrows per ACK
        // while the holes refill); model-based CCAs additionally keep
        // their rate estimator fed through fast recovery.
        cc_->on_ack(delivered, sim_.now(),
                    rtt_.has_sample() ? rtt_.srtt() : 0,
                    rtt_.has_sample() ? rtt_.min_rtt() : 0);
      }
    }
  } else {
    cc_->on_ack(delivered, sim_.now(),
                rtt_.has_sample() ? rtt_.srtt() : 0,
                rtt_.has_sample() ? rtt_.min_rtt() : 0);
  }

  if (flight_bytes() > 0 || (fin_sent_ && state_ == State::kFinSent)) {
    rto_timer_.arm(rtt_.rto());
  } else {
    rto_timer_.disarm();
  }
}

void TcpSender::on_dup_ack() {
  ++stats_.duplicate_acks;
  if (in_recovery_) {
    if (!config_.sack) recovery_inflation_ += config_.mss;
    return;
  }
  ++dupacks_;
  if (!config_.sack && dupacks_ >= 3) maybe_enter_recovery();
}

void TcpSender::maybe_enter_recovery() {
  if (in_recovery_) return;
  const bool sack_trigger =
      config_.sack && sacked_bytes_ >= 3ULL * config_.mss;
  const bool dupack_trigger = dupacks_ >= 3;
  if (!sack_trigger && !dupack_trigger) return;

  in_recovery_ = true;
  rto_recovery_ = false;
  ++stats_.fast_recoveries;
  recover_ = snd_nxt_;
  recover_off_ = snd_nxt_off();
  retx_point_ = una_off_;
  retx_outstanding_ = 0;
  resweep_at_ = sim_.now() + (rtt_.has_sample() ? rtt_.srtt()
                                                : units::milliseconds(100));
  cc_->on_enter_recovery(flight_bytes(), sim_.now());
  if (config_.sack) {
    sack_retransmit();
  } else {
    recovery_inflation_ = 3ULL * config_.mss;
    retransmit_one(snd_una_);
  }
  rto_timer_.arm(rtt_.rto());
}

void TcpSender::exit_recovery() {
  const bool was_rto = rto_recovery_;
  in_recovery_ = false;
  rto_recovery_ = false;
  recovery_inflation_ = 0;
  retx_outstanding_ = 0;
  // After a timeout recovery the window has already regrown in slow
  // start; only fast recovery snaps back to ssthresh.
  if (!was_rto) cc_->on_exit_recovery(sim_.now());
}

void TcpSender::retransmit_one(std::uint32_t seq) {
  const std::uint32_t len =
      std::min<std::uint32_t>(config_.mss,
                              static_cast<std::uint32_t>(snd_nxt_ - seq));
  if (len == 0) return;
  send_segment(seq, len, /*retransmit=*/true);
}

// ---- Sending new data ----------------------------------------------------

bool TcpSender::window_allows(std::uint32_t seg_bytes) const {
  std::uint64_t cwnd = cc_->cwnd_bytes();
  std::uint64_t in_net;
  if (config_.sack) {
    in_net = pipe_bytes();
  } else {
    cwnd += recovery_inflation_;
    in_net = flight_bytes();
  }
  if (in_net + seg_bytes > cwnd) return false;
  return flight_bytes() + seg_bytes <= rwnd_;
}

std::uint32_t TcpSender::next_segment_size() const {
  if (config_.bytes_to_send == 0) {
    return stopping_ ? 0 : config_.mss;
  }
  if (stats_.new_data_bytes >= config_.bytes_to_send) return 0;
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(
      config_.mss, config_.bytes_to_send - stats_.new_data_bytes));
}

void TcpSender::refill_tokens() {
  if (config_.rate_limit_bps == 0) return;
  const SimTime now = sim_.now();
  const double dt = units::to_seconds(now - tokens_refilled_at_);
  tokens_refilled_at_ = now;
  tokens_ += dt * static_cast<double>(config_.rate_limit_bps) / 8.0;
  // Cap the bucket to a few segments: keeps the sender paced rather than
  // bursting accumulated credit.
  const double cap = 4.0 * config_.mss;
  tokens_ = std::min(tokens_, cap);
}

void TcpSender::schedule_token_wakeup(std::uint32_t needed) {
  if (token_wakeup_armed_) return;
  token_wakeup_armed_ = true;
  const double deficit = static_cast<double>(needed) - tokens_;
  const double sec =
      deficit * 8.0 / static_cast<double>(config_.rate_limit_bps);
  sim_.after(std::max<SimTime>(units::seconds_f(sec), 1), [this]() {
    token_wakeup_armed_ = false;
    try_send();
    if (stopping_ || config_.bytes_to_send != 0) maybe_send_fin();
  });
}

void TcpSender::try_send() {
  if (state_ != State::kEstablished) return;
  while (true) {
    const std::uint32_t seg = next_segment_size();
    if (seg == 0) break;
    if (!window_allows(seg)) break;
    if (config_.rate_limit_bps != 0) {
      refill_tokens();
      if (tokens_ < static_cast<double>(seg)) {
        schedule_token_wakeup(seg);
        break;
      }
    }
    // Congestion-control pacing (BBR): a second bucket at the CC's
    // gain-cycled rate.
    const std::uint64_t pace_bps = cc_->pacing_rate_bps();
    if (pace_bps != 0) {
      const SimTime now = sim_.now();
      const double dt = units::to_seconds(now - cc_tokens_refilled_at_);
      cc_tokens_refilled_at_ = now;
      cc_tokens_ = std::min(cc_tokens_ +
                                dt * static_cast<double>(pace_bps) / 8.0,
                            4.0 * config_.mss);
      if (cc_tokens_ < static_cast<double>(seg)) {
        if (!cc_wakeup_armed_) {
          cc_wakeup_armed_ = true;
          const double deficit = static_cast<double>(seg) - cc_tokens_;
          const double sec =
              deficit * 8.0 / static_cast<double>(pace_bps);
          sim_.after(std::max<SimTime>(units::seconds_f(sec), 1),
                     [this]() {
                       cc_wakeup_armed_ = false;
                       try_send();
                       if (stopping_ || config_.bytes_to_send != 0) {
                         maybe_send_fin();
                       }
                     });
        }
        break;
      }
      cc_tokens_ -= static_cast<double>(seg);
    }
    if (config_.rate_limit_bps != 0) tokens_ -= static_cast<double>(seg);
    send_segment(snd_nxt_, seg, /*retransmit=*/false);
    snd_nxt_ += seg;
    stats_.new_data_bytes += seg;
  }
}

void TcpSender::send_segment(std::uint32_t seq, std::uint32_t len,
                             bool retransmit) {
  net::Packet pkt = net::make_tcp_packet(
      host_.ip(), dst_ip_, src_port_, dst_port_, seq, /*ack=*/0,
      static_cast<std::uint8_t>(kAck | kPsh), len,
      config_.advertised_window);
  ++stats_.segments_sent;
  stats_.bytes_sent += len;
  if (retransmit) {
    ++stats_.retransmitted_segments;
    stats_.retransmitted_bytes += len;
    retx_outstanding_ += len;
    rtt_sample_pending_ = false;  // Karn's rule
  } else if (!rtt_sample_pending_) {
    rtt_sample_pending_ = true;
    rtt_sample_end_ = seq + len;
    rtt_sample_sent_at_ = sim_.now();
  }
  host_.send(std::move(pkt));
  if (!rto_timer_.armed()) rto_timer_.arm(rtt_.rto());
}

void TcpSender::maybe_send_fin() {
  if (fin_sent_ || state_ != State::kEstablished) return;
  if (config_.bytes_to_send != 0 &&
      stats_.new_data_bytes < config_.bytes_to_send) {
    return;  // still data to push
  }
  if (flight_bytes() > 0) return;  // wait until everything is acked
  fin_sent_ = true;
  fin_seq_ = snd_nxt_;
  state_ = State::kFinSent;
  net::Packet fin = net::make_tcp_packet(
      host_.ip(), dst_ip_, src_port_, dst_port_, fin_seq_, 0,
      static_cast<std::uint8_t>(kFin | kAck), 0, config_.advertised_window);
  host_.send(std::move(fin));
  rto_timer_.arm(rtt_.rto());
}

// ---- Timers ----------------------------------------------------------------

void TcpSender::on_rto_expired() {
  if (state_ == State::kClosed) return;
  ++stats_.rto_count;
  rtt_.backoff();
  if (state_ == State::kSynSent) {
    net::Packet syn = net::make_tcp_packet(
        host_.ip(), dst_ip_, src_port_, dst_port_, isn_, 0, kSyn, 0,
        config_.advertised_window);
    host_.send(std::move(syn));
    rto_timer_.arm(rtt_.rto());
    return;
  }
  if (state_ == State::kFinSent && flight_bytes() == 0) {
    net::Packet fin = net::make_tcp_packet(
        host_.ip(), dst_ip_, src_port_, dst_port_, fin_seq_, 0,
        static_cast<std::uint8_t>(kFin | kAck), 0,
        config_.advertised_window);
    host_.send(std::move(fin));
    rto_timer_.arm(rtt_.rto());
    return;
  }
  // Data timeout: collapse the window and restart in slow start. All
  // outstanding flight is presumed lost (RFC 6298 semantics): the
  // scoreboard is discarded and the whole window becomes "holes" that
  // timeout recovery refills, paced by the regrowing window.
  in_recovery_ = true;
  rto_recovery_ = true;
  recovery_inflation_ = 0;
  dupacks_ = 0;
  sacked_.clear();
  sacked_bytes_ = 0;
  recover_ = snd_nxt_;
  recover_off_ = snd_nxt_off();
  highest_sacked_off_ = snd_nxt_off();  // everything below is a hole
  retx_point_ = una_off_;
  retx_outstanding_ = 0;
  resweep_at_ = sim_.now() + (rtt_.has_sample() ? rtt_.srtt()
                                                : units::milliseconds(100));
  cc_->on_rto(sim_.now());
  if (config_.sack) {
    sack_retransmit();
  } else {
    retransmit_one(snd_una_);
  }
  rto_timer_.arm(rtt_.rto());
}

void TcpSender::finish() {
  state_ = State::kClosed;
  stats_.end_time = sim_.now();
  if (on_complete_) on_complete_();
}

}  // namespace p4s::tcp
