// End host (DTN or perfSONAR node): owns an IP address, sends packets via
// its uplink port, and demultiplexes arrivals to bound protocol/port
// handlers. Includes the kernel-style ICMP echo responder so ping-like
// active tests work against any host.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {

class Host : public PacketSink {
 public:
  Host(sim::Simulation& sim, std::string name, Ipv4Address ip)
      : sim_(sim), name_(std::move(name)), ip_(ip) {}

  void attach_uplink(OutputPort& port) { uplink_ = &port; }

  /// Send a packet: stamps the per-host IPv4 identification counter and
  /// enqueues on the uplink. The caller fills all other header fields.
  void send(Packet pkt);

  using Handler = std::function<void(const Packet&)>;

  /// Bind a handler for packets with the given protocol and destination
  /// port (for ICMP the "port" is the echo ident). Replaces any existing
  /// binding.
  void bind(Protocol proto, std::uint16_t port, Handler handler);
  void unbind(Protocol proto, std::uint16_t port);

  void on_packet(const Packet& pkt) override;

  Ipv4Address ip() const { return ip_; }
  const std::string& name() const { return name_; }
  sim::Simulation& simulation() { return sim_; }

  std::uint64_t received_pkts() const { return received_pkts_; }

  /// Pick an ephemeral source port (deterministic, never repeats within a
  /// run until wrap).
  std::uint16_t allocate_port();

 private:
  static std::uint64_t key(Protocol proto, std::uint16_t port) {
    return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(proto))
            << 16) |
           port;
  }

  sim::Simulation& sim_;
  std::string name_;
  Ipv4Address ip_;
  OutputPort* uplink_ = nullptr;
  std::unordered_map<std::uint64_t, Handler> handlers_;
  std::uint16_t ip_id_ = 0;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint64_t received_pkts_ = 0;
};

}  // namespace p4s::net
