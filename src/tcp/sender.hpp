// TCP sender endpoint.
//
// Implements the sender side of a one-directional bulk transfer (the DTN
// workload): three-way-handshake initiation, SACK-based loss recovery
// (RFC 2018/6675-style scoreboard — what real DTN stacks run; NewReno
// partial-ACK recovery is available with sack=false for ablation), RFC
// 6298 RTO with Karn's rule, receive-window limiting, and optional
// application rate limiting via a token bucket (the paper's
// "sender-limited" case, §5.4.2).
//
// Wire sequence numbers are wrap-safe 32-bit; the SACK scoreboard and
// byte totals are kept in 64-bit stream offsets (offset 0 = first data
// byte), converted at the header boundary.
//
// The RTO is one sim::Timer: every ACK moves its deadline, and the timer
// keeps a single event in the queue instead of one per ACK. Its events,
// like the token and pacing wakeups, capture `this`, so a sender must
// outlive every run of its simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "net/host.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "tcp/congestion.hpp"
#include "tcp/rtt_estimator.hpp"

namespace p4s::tcp {

class TcpSender {
 public:
  struct Config {
    std::uint32_t mss = 1460;
    std::string congestion_control = "cubic";
    std::uint64_t initial_cwnd_segments = 10;
    /// SACK-based recovery (default, matches modern stacks). false falls
    /// back to NewReno partial-ACK recovery.
    bool sack = true;
    /// Application rate limit in bits/s; 0 = always backlogged.
    std::uint64_t rate_limit_bps = 0;
    /// Total application bytes to transfer; 0 = unbounded until stop().
    std::uint64_t bytes_to_send = 0;
    /// Window we advertise on our own packets (we receive only ACKs, so
    /// this only matters for wire realism).
    std::uint32_t advertised_window = 1 << 20;
    RttEstimator::Config rtt;
  };

  struct Stats {
    SimTime start_time = 0;
    SimTime established_time = 0;
    SimTime end_time = 0;
    std::uint64_t bytes_sent = 0;  // includes retransmissions
    std::uint64_t new_data_bytes = 0;
    std::uint64_t bytes_acked = 0;
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmitted_segments = 0;
    std::uint64_t retransmitted_bytes = 0;
    std::uint64_t duplicate_acks = 0;
    std::uint64_t fast_recoveries = 0;
    std::uint64_t rto_count = 0;
  };

  enum class State { kIdle, kSynSent, kEstablished, kFinSent, kClosed };

  TcpSender(sim::Simulation& sim, net::Host& host, net::Ipv4Address dst,
            std::uint16_t src_port, std::uint16_t dst_port, Config config);
  ~TcpSender();

  TcpSender(const TcpSender&) = delete;
  TcpSender& operator=(const TcpSender&) = delete;

  /// Initiate the connection (sends SYN).
  void start();

  /// Stop offering new application data; closes with FIN once all
  /// outstanding data is acknowledged.
  void stop();

  /// Deliver a packet addressed to this connection (the host's demux
  /// calls this).
  void on_packet(const net::Packet& pkt);

  void set_on_complete(std::function<void()> cb) {
    on_complete_ = std::move(cb);
  }

  State state() const { return state_; }
  const Stats& stats() const { return stats_; }
  std::uint64_t cwnd_bytes() const { return cc_->cwnd_bytes(); }
  std::uint64_t flight_bytes() const {
    return static_cast<std::uint32_t>(snd_nxt_ - snd_una_);
  }
  const RttEstimator& rtt() const { return rtt_; }
  const CongestionControl& congestion() const { return *cc_; }
  net::FiveTuple five_tuple() const;

 private:
  void send_syn();
  void handle_syn_ack(const net::Packet& pkt);
  void handle_ack(const net::Packet& pkt);
  void on_new_ack(std::uint32_t ack, std::uint64_t acked_bytes,
                  std::uint64_t newly_sacked);
  void on_dup_ack();
  void maybe_enter_recovery();
  void exit_recovery();
  void retransmit_one(std::uint32_t seq);
  void try_send();
  bool window_allows(std::uint32_t seg_bytes) const;
  std::uint32_t next_segment_size() const;
  void send_segment(std::uint32_t seq, std::uint32_t len, bool retransmit);
  void maybe_send_fin();
  void on_rto_expired();
  void refill_tokens();
  void schedule_token_wakeup(std::uint32_t needed);
  void finish();

  // ---- SACK scoreboard (stream offsets) -------------------------------
  std::uint64_t snd_nxt_off() const { return una_off_ + flight_bytes(); }
  std::uint64_t offset_of(std::uint32_t seq) const;
  std::uint32_t seq_of(std::uint64_t offset) const;
  /// Returns the number of newly SACKed bytes (fresh deliveries).
  std::uint64_t merge_sack(const net::TcpHeader& tcp);
  /// Returns the bytes removed that lay below the new una (the portion
  /// of the cumulative advance that had already been SACKed).
  std::uint64_t prune_sacked_below_una();
  /// In-flight bytes still assumed to occupy the network (RFC 6675 pipe,
  /// simplified): bytes above the highest SACKed offset (presumed
  /// delivered or in transit) plus our outstanding retransmissions.
  /// Unsacked holes below the highest SACK are treated as lost — this is
  /// what lets recovery proceed after a mass-drop episode.
  std::uint64_t pipe_bytes() const {
    const std::uint64_t nxt = snd_nxt_off();
    const std::uint64_t above =
        nxt > highest_sacked_off_ ? nxt - highest_sacked_off_ : 0;
    return above + retx_outstanding_;
  }
  void sack_retransmit();

  sim::Simulation& sim_;
  net::Host& host_;
  net::Ipv4Address dst_ip_;
  std::uint16_t src_port_;
  std::uint16_t dst_port_;
  Config config_;
  Stats stats_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;

  State state_ = State::kIdle;
  std::uint32_t isn_ = 0;
  // Wire sequence numbers. snd_una_ <= snd_nxt_ in sequence space; the
  // distance (flight) never exceeds the receive window < 2^31.
  std::uint32_t snd_una_ = 0;
  std::uint32_t snd_nxt_ = 0;
  std::uint32_t rwnd_ = 0;
  bool stopping_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Loss recovery.
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::uint32_t recover_ = 0;              // NewReno recovery point (wire)
  std::uint64_t recover_off_ = 0;          // SACK recovery point (offset)
  std::uint64_t recovery_inflation_ = 0;   // NewReno cwnd inflation

  // SACK scoreboard: disjoint [start, end) intervals in stream offsets,
  // all above una_off_.
  std::uint64_t una_off_ = 0;  // stream offset of snd_una_
  std::map<std::uint64_t, std::uint64_t> sacked_;
  std::uint64_t sacked_bytes_ = 0;
  std::uint64_t highest_sacked_off_ = 0;
  std::uint64_t retx_point_ = 0;  // next hole to retransmit this recovery
  std::uint64_t retx_outstanding_ = 0;  // retransmitted, not yet cum-acked
  bool rto_recovery_ = false;  // recovery entered via timeout (slow start)
  SimTime resweep_at_ = 0;     // earliest time for a scoreboard re-sweep

  // RTT sampling (one in flight, Karn-invalidated on any retransmit).
  bool rtt_sample_pending_ = false;
  std::uint32_t rtt_sample_end_ = 0;
  SimTime rtt_sample_sent_at_ = 0;

  // Application token bucket (rate_limit_bps > 0).
  double tokens_ = 0.0;
  SimTime tokens_refilled_at_ = 0;
  bool token_wakeup_armed_ = false;

  // Congestion-control pacing bucket (cc_->pacing_rate_bps() > 0; BBR).
  double cc_tokens_ = 0.0;
  SimTime cc_tokens_refilled_at_ = 0;
  bool cc_wakeup_armed_ = false;

  sim::Timer rto_timer_;  // RFC 6298 retransmission timer
  std::function<void()> on_complete_;
};

}  // namespace p4s::tcp
