// Legacy (non-programmable) switch: static routing over output ports.
// This is the "core switch" of Figure 3 — the device whose queue the
// P4-perfSONAR system observes from the outside via a pair of TAPs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {

class LegacySwitch : public PacketSink {
 public:
  explicit LegacySwitch(std::string name) : name_(std::move(name)) {}

  /// Give the switch a router address. With an address set, packets whose
  /// TTL expires in transit generate an ICMP time-exceeded (type 11) back
  /// to the sender — what traceroute relies on. Without one, expired
  /// packets are dropped silently.
  void set_address(Ipv4Address addr) { address_ = addr; }
  Ipv4Address address() const { return address_; }

  /// Register an output port (non-owning; the topology owns ports).
  /// Returns the port index used by routes.
  std::size_t add_port(OutputPort& port);

  /// Exact-match route: packets to `dst` leave through `port_index`.
  void route(Ipv4Address dst, std::size_t port_index);
  void set_default_route(std::size_t port_index);
  /// Remove an exact route (falls back to the default route).
  void unroute(Ipv4Address dst);

  void on_packet(const Packet& pkt) override;

  /// Fired for every packet arriving at the switch, before forwarding.
  /// This is where the ingress TAP attaches; several TAPs can observe the
  /// same switch (the monitoring fabric attaches one pair per monitored
  /// site). Hooks fire in attachment order.
  void add_ingress_hook(std::function<void(const Packet&)> hook) {
    if (hook) ingress_hooks_.push_back(std::move(hook));
  }

  OutputPort& port(std::size_t index) { return *ports_.at(index); }
  std::size_t port_count() const { return ports_.size(); }
  const std::string& name() const { return name_; }

  std::uint64_t forwarded_pkts() const { return forwarded_pkts_; }
  std::uint64_t unroutable_pkts() const { return unroutable_pkts_; }
  std::uint64_t ttl_expired_pkts() const { return ttl_expired_pkts_; }

 private:
  void send_time_exceeded(const Packet& original);

  std::string name_;
  Ipv4Address address_ = 0;
  std::uint64_t ttl_expired_pkts_ = 0;
  std::vector<OutputPort*> ports_;
  std::unordered_map<Ipv4Address, std::size_t> fib_;
  std::size_t default_port_ = kNoPort;
  std::vector<std::function<void(const Packet&)>> ingress_hooks_;
  std::uint64_t forwarded_pkts_ = 0;
  std::uint64_t unroutable_pkts_ = 0;

  static constexpr std::size_t kNoPort = static_cast<std::size_t>(-1);
};

}  // namespace p4s::net
