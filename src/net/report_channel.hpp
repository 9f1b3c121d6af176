// ReportChannel: the control-plane -> Logstash "TCP connection" of
// Figure 7 as a simulated byte stream over the discrete-event clock.
//
// The seed code collapsed this wire to a direct function call, so the one
// link the whole report path depends on could never fail. This model
// restores the failure surface a production Science DMZ deployment faces:
//
//   * byte-stream semantics — what was sent as one write may arrive as
//     several chunks of arbitrary size (and one chunk may carry several
//     writes); receivers must reassemble;
//   * a bounded send buffer — send() rejects when the writer outruns the
//     connection, modeling a full socket buffer;
//   * slow-consumer backpressure — an optional drain rate paces delivery,
//     so a slow Logstash makes the buffer fill upstream;
//   * connection resets — everything buffered or in flight is lost and
//     the channel must be reconnected before it accepts writes again;
//   * stalls — delivery freezes for a window (the bytes survive), as in
//     a zero-window peer or a routing transient.
//
// All behaviour is driven by the owning sim::Simulation's clock and a
// channel-local PRNG stream, so a given seed reproduces byte-identical
// delivery. FaultInjector (fault_injector.hpp) schedules resets/stalls
// against this surface; ResilientReportSink (controlplane) makes the
// report path survive them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "util/units.hpp"

namespace p4s::net {

class ReportChannel {
 public:
  struct Config {
    /// One-way propagation delay per chunk.
    SimTime latency = units::microseconds(500);
    /// Send-buffer bound; send() fails once this much is queued.
    std::uint64_t send_buffer_bytes = 256 * 1024;
    /// Receiver drain rate; 0 = consume at line rate (no pacing).
    std::uint64_t drain_bps = 0;
    /// Largest chunk handed to the receiver in one call (MSS-like).
    std::uint64_t max_chunk_bytes = 1400;
    /// Randomize chunk sizes in [1, max_chunk_bytes] instead of always
    /// delivering full chunks — exercises reassembly at every offset.
    bool random_chunking = true;
    /// Seed for the channel's private PRNG (chunk sizing).
    std::uint64_t seed = 0x5ca1ab1e;
  };

  /// Receives the next delivered chunk, in order.
  using ChunkReceiver = std::function<void(std::string_view chunk)>;
  /// Invoked on every reset(), after buffered bytes are discarded.
  using DisconnectHandler = std::function<void()>;

  ReportChannel(sim::Simulation& sim, Config config);

  ReportChannel(const ReportChannel&) = delete;
  ReportChannel& operator=(const ReportChannel&) = delete;

  void set_receiver(ChunkReceiver receiver) {
    receiver_ = std::move(receiver);
  }
  /// Register a disconnect observer (both ends care: the sender to
  /// reconnect, the receiver to discard its partial reassembly state).
  void on_disconnect(DisconnectHandler handler) {
    disconnect_handlers_.push_back(std::move(handler));
  }

  /// (Re-)establish the connection. Counts a reconnect after the first.
  void connect();

  /// Queue bytes for delivery. Returns false — and accepts nothing —
  /// when disconnected or when the bytes don't fit in the send buffer.
  bool send(std::string_view bytes);

  // ---- Fault surface (driven by FaultInjector or tests directly) ------
  /// Drop the connection: all buffered and in-flight bytes are lost.
  void reset();
  /// Freeze delivery for `duration`; buffered bytes survive and resume.
  void stall(SimTime duration);

  bool connected() const { return connected_; }
  bool stalled() const { return sim_.now() < stalled_until_; }

  struct Stats {
    std::uint64_t bytes_accepted = 0;   // admitted by send()
    std::uint64_t bytes_delivered = 0;  // handed to the receiver
    std::uint64_t bytes_lost = 0;       // discarded by resets
    std::uint64_t chunks_delivered = 0;
    std::uint64_t sends_rejected = 0;   // send() refusals (full/closed)
    std::uint64_t resets = 0;
    std::uint64_t stalls = 0;
    std::uint64_t connects = 0;
  };
  const Stats& stats() const { return stats_; }
  /// connects minus the initial one.
  std::uint64_t reconnects() const {
    return stats_.connects > 0 ? stats_.connects - 1 : 0;
  }

  const Config& config() const { return config_; }

 private:
  void schedule_pump(SimTime delay);
  void pump();

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  ChunkReceiver receiver_;
  std::vector<DisconnectHandler> disconnect_handlers_;

  bool connected_ = false;
  SimTime stalled_until_ = 0;
  /// Bumped on every reset; pending pump events from an older epoch are
  /// stale and must not deliver.
  std::uint64_t epoch_ = 0;
  bool pump_scheduled_ = false;
  /// Earliest time the next chunk may leave (drain-rate pacing).
  SimTime next_tx_at_ = 0;

  std::deque<char> buffer_;
  std::uint64_t buffered_bytes_ = 0;
  Stats stats_;
};

}  // namespace p4s::net
