#include "workload/generators.hpp"

#include <stdexcept>

#include "net/packet.hpp"

namespace p4s::workload {

const char* to_string(WorkloadSpec::Kind kind) {
  switch (kind) {
    case WorkloadSpec::Kind::kSynFlood: return "syn_flood";
    case WorkloadSpec::Kind::kPortScan: return "port_scan";
    case WorkloadSpec::Kind::kElephantMice: return "elephant_mice";
  }
  return "?";
}

WorkloadSpec::Kind workload_kind_from_name(const std::string& name) {
  if (name == "syn_flood") return WorkloadSpec::Kind::kSynFlood;
  if (name == "port_scan") return WorkloadSpec::Kind::kPortScan;
  if (name == "elephant_mice") return WorkloadSpec::Kind::kElephantMice;
  throw std::invalid_argument("unknown workload kind: " + name);
}

namespace {

SimTime period_of(double pps) {
  if (pps <= 0.0) return units::seconds(1);
  return static_cast<SimTime>(1e9 / pps);
}

}  // namespace

// ---- SynFloodGenerator ----------------------------------------------------

SynFloodGenerator::SynFloodGenerator(sim::Simulation& sim,
                                     net::Host& attacker,
                                     net::Ipv4Address victim,
                                     const WorkloadSpec& spec)
    : sim_(sim), attacker_(attacker), victim_(victim), spec_(spec) {}

void SynFloodGenerator::start() {
  const SimTime end = spec_.start + spec_.duration;
  sim_.every(spec_.start, period_of(spec_.pps), [this, end]() {
    if (sim_.now() >= end) return false;
    send_one();
    return true;
  });
}

void SynFloodGenerator::send_one() {
  // Rotating spoofed source out of a 172.16/16-style pool: a knuth-hash
  // of the counter spreads sources without consuming simulation
  // randomness (determinism: same seed, same flood).
  const std::uint32_t i = static_cast<std::uint32_t>(sent_);
  const std::uint32_t scatter = (i * 2654435761u) >> 16;
  const net::Ipv4Address spoofed =
      net::ipv4(172, 16, 0, 0) | (scatter % spec_.spoof_count);
  const std::uint16_t src_port =
      static_cast<std::uint16_t>(1024 + (i % 60000));
  net::Packet syn = net::make_tcp_packet(
      spoofed, victim_, src_port, spec_.port, /*seq=*/i, /*ack=*/0,
      net::tcpflags::kSyn, /*payload=*/0, /*window=*/65535);
  attacker_.send(std::move(syn));
  ++sent_;
}

// ---- PortScanGenerator ----------------------------------------------------

PortScanGenerator::PortScanGenerator(sim::Simulation& sim,
                                     net::Host& attacker,
                                     net::Ipv4Address victim,
                                     const WorkloadSpec& spec)
    : sim_(sim), attacker_(attacker), victim_(victim), spec_(spec) {}

void PortScanGenerator::start() {
  sim_.every(spec_.start, period_of(spec_.pps), [this]() {
    if (sent_ >= spec_.port_count) return false;
    const std::uint16_t port =
        static_cast<std::uint16_t>(spec_.port + sent_);
    const std::uint16_t src_port =
        static_cast<std::uint16_t>(40000 + (sent_ % 20000));
    net::Packet syn = net::make_tcp_packet(
        attacker_.ip(), victim_, src_port, port,
        /*seq=*/static_cast<std::uint32_t>(sent_), /*ack=*/0,
        net::tcpflags::kSyn, /*payload=*/0, /*window=*/65535);
    attacker_.send(std::move(syn));
    ++sent_;
    return true;
  });
}

// ---- ElephantMiceGenerator ------------------------------------------------

ElephantMiceGenerator::ElephantMiceGenerator(sim::Simulation& sim,
                                             net::Host& src, net::Host& dst,
                                             const WorkloadSpec& spec)
    : sim_(sim), src_(src), dst_(dst), spec_(spec) {}

void ElephantMiceGenerator::start() {
  const SimTime end = spec_.start + spec_.duration;
  // Elephants: long-lived bulk flows, starts staggered by 100 ms so
  // their slow starts do not synchronize.
  for (std::size_t i = 0; i < spec_.elephants; ++i) {
    tcp::TcpFlow::Config fc;
    fc.sender.bytes_to_send = spec_.elephant_bytes;
    auto flow = std::make_unique<tcp::TcpFlow>(sim_, src_, dst_, fc);
    flow->start_at(spec_.start + units::milliseconds(100) * i);
    if (spec_.elephant_bytes == 0) flow->stop_at(end);
    flows_.push_back(std::move(flow));
  }
  // Mice: fixed-rate arrivals of short transfers until the end time.
  if (spec_.mice_per_second > 0.0) {
    sim_.every(spec_.start, period_of(spec_.mice_per_second),
               [this, end]() {
                 if (sim_.now() >= end) return false;
                 tcp::TcpFlow::Config fc;
                 fc.sender.bytes_to_send = spec_.mice_bytes;
                 auto flow =
                     std::make_unique<tcp::TcpFlow>(sim_, src_, dst_, fc);
                 flow->start_at(sim_.now());
                 flows_.push_back(std::move(flow));
                 return true;
               });
  }
}

// ---- Factory --------------------------------------------------------------

std::unique_ptr<TrafficGenerator> make_generator(sim::Simulation& sim,
                                                 net::Host& src,
                                                 net::Host& dst,
                                                 const WorkloadSpec& spec) {
  switch (spec.kind) {
    case WorkloadSpec::Kind::kSynFlood:
      return std::make_unique<SynFloodGenerator>(sim, src, dst.ip(), spec);
    case WorkloadSpec::Kind::kPortScan:
      return std::make_unique<PortScanGenerator>(sim, src, dst.ip(), spec);
    case WorkloadSpec::Kind::kElephantMice:
      return std::make_unique<ElephantMiceGenerator>(sim, src, dst, spec);
  }
  throw std::invalid_argument("unknown workload kind");
}

}  // namespace p4s::workload
