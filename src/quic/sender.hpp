// QUIC-like sender endpoint (the client side of a one-directional bulk
// transfer over the encrypted transport).
//
// A deliberately small subset of RFC 9000 machinery, enough to exercise
// the monitoring pipeline against encrypted traffic:
//
//   * an Initial long-header handshake, retransmitted on timeout until
//     the server's Initial arrives (1-RTT establishment);
//   * windowed STREAM delivery in short-header packets, one monotonically
//     increasing packet-number space, retransmission always under a NEW
//     packet number (QUIC never reuses one — RTT samples need no Karn
//     rule);
//   * packet-threshold loss detection (a packet is lost once packets
//     numbered kPacketThreshold above it are acknowledged) with an RFC
//     6298-style RTO as the backstop, reusing tcp::RttEstimator;
//   * the latency spin bit (RFC 9000 §17.4): each short packet carries
//     the INVERSE of the spin observed on the largest-numbered packet
//     from the server, so the observable bit flips once per RTT.
//
// ACK frames ride inside the opaque payload (net::QuicFrames) — the P4
// pipeline cannot match on them, unlike TCP's cleartext ACKs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "tcp/rtt_estimator.hpp"

namespace p4s::quic {

class QuicSender {
 public:
  struct Config {
    /// Stream bytes per short packet (QUIC's usual 1200-byte datagram
    /// budget minus header + frame overhead).
    std::uint32_t mss = 1200;
    /// Fixed flow-control window: maximum unacknowledged stream bytes.
    std::uint64_t window_bytes = 256ULL << 10;
    /// Total stream bytes to transfer; 0 = unbounded until stop().
    std::uint64_t bytes_to_send = 0;
    /// Opaque payload of the Initial (clients pad theirs to a full
    /// datagram per RFC 9000 §14.1).
    std::uint32_t handshake_payload_bytes = 1200;
    /// Ciphertext overhead per short packet beyond the stream bytes
    /// (frame header + AEAD tag).
    std::uint32_t crypto_overhead_bytes = 16;
    /// Declare a packet lost once one numbered this far above it is
    /// acknowledged (RFC 9002 packet-number threshold).
    std::uint32_t packet_threshold = 3;
    /// Connection IDs; assigned by QuicFlow.
    std::uint64_t my_cid = 0;    // our SCID == the server's reply DCID
    std::uint64_t peer_cid = 0;  // DCID on everything we send
    tcp::RttEstimator::Config rtt;
  };

  struct Stats {
    SimTime start_time = 0;
    SimTime established_time = 0;
    SimTime end_time = 0;
    std::uint64_t packets_sent = 0;
    std::uint64_t stream_bytes_sent = 0;  // new data only
    std::uint64_t bytes_acked = 0;        // stream bytes acknowledged
    std::uint64_t retransmitted_packets = 0;
    std::uint64_t lost_packets = 0;  // declared by threshold detection
    std::uint64_t rto_count = 0;
    std::uint64_t handshake_retx = 0;
    std::uint64_t spin_flips = 0;  // edges we emitted on the wire
  };

  enum class State { kIdle, kHandshake, kEstablished, kClosed };

  QuicSender(sim::Simulation& sim, net::Host& host, net::Ipv4Address dst,
             std::uint16_t src_port, std::uint16_t dst_port, Config config);
  ~QuicSender();

  QuicSender(const QuicSender&) = delete;
  QuicSender& operator=(const QuicSender&) = delete;

  /// Initiate the connection (sends the Initial).
  void start();
  /// Stop offering new data; closes with FIN once everything is acked.
  void stop();

  void on_packet(const net::Packet& pkt);

  void set_on_complete(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  State state() const { return state_; }
  const Stats& stats() const { return stats_; }
  const tcp::RttEstimator& rtt() const { return rtt_; }
  std::uint64_t flight_bytes() const { return flight_bytes_; }
  net::FiveTuple five_tuple() const;

 private:
  /// One unacknowledged packet (keyed by its packet number).
  struct SentPacket {
    std::uint64_t offset = 0;
    std::uint32_t len = 0;  // 0 for the Initial and a pure-FIN packet
    bool fin = false;
    bool initial = false;
    SimTime sent_at = 0;
  };

  void send_initial(bool retransmit);
  void process_ack(const net::QuicFrames& frames);
  void detect_losses(std::uint32_t largest_acked);
  void resend(std::uint32_t old_pn);
  void try_send();
  void send_stream_packet(std::uint64_t offset, std::uint32_t len, bool fin,
                          bool retransmit);
  bool current_spin() const { return !server_spin_; }
  void maybe_finish();
  void on_rto_expired();

  sim::Simulation& sim_;
  net::Host& host_;
  net::Ipv4Address dst_ip_;
  std::uint16_t src_port_;
  std::uint16_t dst_port_;
  Config config_;
  Stats stats_;
  tcp::RttEstimator rtt_;

  State state_ = State::kIdle;
  std::uint32_t next_pn_ = 0;
  std::uint64_t next_offset_ = 0;    // next new stream byte to send
  std::uint64_t target_bytes_ = 0;   // stream length (may be set by stop())
  bool unbounded_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  std::uint64_t flight_bytes_ = 0;   // stream bytes in unacked packets

  // Unacked packets by packet number (ordered — threshold loss detection
  // walks the low end).
  std::map<std::uint32_t, SentPacket> inflight_;
  std::uint32_t largest_acked_ = 0;
  bool any_acked_ = false;

  // Spin state: spin bit of the largest-numbered short packet received
  // from the server; we transmit its inverse (§17.4).
  bool server_spin_ = false;
  std::uint32_t largest_server_pn_ = 0;
  bool any_server_short_ = false;
  bool last_sent_spin_ = false;
  bool any_sent_short_ = false;

  sim::Timer rto_timer_;
  std::function<void()> on_complete_;
};

}  // namespace p4s::quic
