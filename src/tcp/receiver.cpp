#include "tcp/receiver.hpp"

#include <algorithm>

#include "tcp/seq.hpp"

namespace p4s::tcp {

using net::tcpflags::kAck;
using net::tcpflags::kFin;
using net::tcpflags::kSyn;

TcpReceiver::TcpReceiver(sim::Simulation& sim, net::Host& host,
                         std::uint16_t port, Config config)
    : sim_(sim), host_(host), port_(port), config_(config) {
  host_.bind(net::Protocol::kTcp, port_,
             [this](const net::Packet& pkt) { on_packet(pkt); });
}

TcpReceiver::~TcpReceiver() { host_.unbind(net::Protocol::kTcp, port_); }

std::uint64_t TcpReceiver::advertised_window() const {
  if (ooo_bytes_ >= config_.buffer_bytes) return 0;
  return config_.buffer_bytes - ooo_bytes_;
}

void TcpReceiver::on_packet(const net::Packet& pkt) {
  if (!pkt.is_tcp()) return;
  const net::TcpHeader& tcp = pkt.tcp();
  if (tcp.has(kSyn)) {
    handle_syn(pkt);
    return;
  }
  if (!established_) return;
  handle_data(pkt);
}

void TcpReceiver::handle_syn(const net::Packet& pkt) {
  const net::TcpHeader& tcp = pkt.tcp();
  if (established_ && pkt.ip.src == peer_ip_ && tcp.src_port == peer_port_) {
    // Retransmitted SYN: re-send the SYN-ACK.
  } else {
    established_ = true;
    peer_ip_ = pkt.ip.src;
    peer_port_ = tcp.src_port;
    peer_isn_ = tcp.seq;
    my_isn_ = (static_cast<std::uint32_t>(port_) << 16) ^ peer_port_ ^
              host_.ip() ^ 0xC3C3C3C3u;
    rcv_next64_ = 0;
  }
  net::Packet synack = net::make_tcp_packet(
      host_.ip(), peer_ip_, port_, peer_port_, my_isn_, peer_isn_ + 1,
      static_cast<std::uint8_t>(kSyn | kAck), 0,
      static_cast<std::uint32_t>(
          std::min<std::uint64_t>(advertised_window(), 0xFFFFFFFFULL)));
  host_.send(std::move(synack));
}

void TcpReceiver::handle_data(const net::Packet& pkt) {
  const net::TcpHeader& tcp = pkt.tcp();
  if (pkt.ip.src != peer_ip_ || tcp.src_port != peer_port_) return;

  const std::uint32_t payload = pkt.payload_bytes();
  const bool fin = tcp.has(kFin);
  if (payload == 0 && !fin) return;  // bare ACK from peer: nothing to do

  ++stats_.received_segments;
  if (stats_.first_data_time == 0) stats_.first_data_time = sim_.now();
  stats_.last_data_time = sim_.now();

  // Map the wire sequence to a 64-bit stream offset near rcv_next64_.
  const std::uint32_t expected_wire =
      peer_isn_ + 1 + static_cast<std::uint32_t>(rcv_next64_);
  const auto rel = static_cast<std::int64_t>(
      static_cast<std::int32_t>(tcp.seq - expected_wire));
  const std::int64_t start_signed =
      static_cast<std::int64_t>(rcv_next64_) + rel;

  if (fin && payload == 0) {
    // Pure FIN: in-order only (we never see OOO FINs in these workloads).
    if (start_signed == static_cast<std::int64_t>(rcv_next64_) &&
        ooo_.empty()) {
      stats_.fin_received = true;
      fin_acked_ = true;
      send_ack();
      if (on_fin_) on_fin_();
    } else {
      send_ack();
    }
    return;
  }

  if (start_signed < 0) {
    ++stats_.duplicate_segments;
    send_ack();
    return;
  }
  std::uint64_t start = static_cast<std::uint64_t>(start_signed);
  std::uint64_t end = start + payload;

  if (end <= rcv_next64_) {
    ++stats_.duplicate_segments;  // entirely old data (retransmission)
    send_ack();
    return;
  }
  start = std::max(start, rcv_next64_);

  if (start == rcv_next64_) {
    rcv_next64_ = end;
    // Pull any contiguous out-of-order intervals.
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->first <= rcv_next64_) {
      if (it->second > rcv_next64_) rcv_next64_ = it->second;
      ooo_bytes_ -= (it->second - it->first);
      it = ooo_.erase(it);
    }
  } else {
    ++stats_.out_of_order_segments;
    // Insert [start, end), merging overlaps.
    auto it = ooo_.lower_bound(start);
    if (it != ooo_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        ooo_bytes_ -= (prev->second - prev->first);
        ooo_.erase(prev);
      }
    }
    it = ooo_.lower_bound(start);
    while (it != ooo_.end() && it->first <= end) {
      end = std::max(end, it->second);
      ooo_bytes_ -= (it->second - it->first);
      it = ooo_.erase(it);
    }
    ooo_[start] = end;
    ooo_bytes_ += end - start;
    newest_interval_start_ = start;
  }
  stats_.goodput_bytes = rcv_next64_;

  if (fin) {
    if (start_signed >= 0 &&
        static_cast<std::uint64_t>(start_signed) + payload == rcv_next64_ &&
        ooo_.empty()) {
      stats_.fin_received = true;
      fin_acked_ = true;
    }
  }
  send_ack();
  if (fin && stats_.fin_received && on_fin_) on_fin_();
}

void TcpReceiver::send_ack() {
  ++stats_.acks_sent;
  const std::uint32_t wire_ack = peer_isn_ + 1 +
                                 static_cast<std::uint32_t>(rcv_next64_) +
                                 (fin_acked_ ? 1u : 0u);
  net::Packet ack = net::make_tcp_packet(
      host_.ip(), peer_ip_, port_, peer_port_, my_isn_ + 1, wire_ack, kAck,
      0,
      static_cast<std::uint32_t>(
          std::min<std::uint64_t>(advertised_window(), 0xFFFFFFFFULL)));
  // SACK option: up to 3 out-of-order intervals. RFC 2018 requires the
  // block containing the most recently received segment first; remaining
  // slots cycle through the other intervals so the sender's scoreboard
  // eventually learns all of them.
  net::TcpHeader& tcp = ack.tcp();
  auto add_block = [&](std::uint64_t start, std::uint64_t end) {
    if (tcp.sack_count >= tcp.sack.size()) return;
    tcp.sack[tcp.sack_count++] = net::SackBlock{
        peer_isn_ + 1 + static_cast<std::uint32_t>(start),
        peer_isn_ + 1 + static_cast<std::uint32_t>(end)};
  };
  std::uint64_t first_start = kNoInterval;
  if (newest_interval_start_ != kNoInterval) {
    auto it = ooo_.find(newest_interval_start_);
    if (it != ooo_.end()) {
      add_block(it->first, it->second);
      first_start = it->first;
    }
  }
  if (!ooo_.empty()) {
    auto it = ooo_.upper_bound(sack_cursor_);
    for (std::size_t scanned = 0;
         scanned < ooo_.size() && tcp.sack_count < tcp.sack.size();
         ++scanned) {
      if (it == ooo_.end()) it = ooo_.begin();
      if (it->first != first_start) {
        add_block(it->first, it->second);
        sack_cursor_ = it->first;
      }
      ++it;
    }
  }
  host_.send(std::move(ack));
}

}  // namespace p4s::tcp
