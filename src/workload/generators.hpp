// Adversarial and mixed workload generators — the traffic the NIDS
// feature engine (telemetry/nids_features) is meant to tag, plus the
// benign elephant/mice mix it must stay quiet on.
//
//   * SynFloodGenerator — half-open connection flood at a fixed rate
//     with rotating spoofed sources (the host's send path stamps only
//     the IPv4 id, so spoofing works exactly like raw sockets do);
//   * PortScanGenerator — one real source SYNing a sequential port
//     range on one victim;
//   * ElephantMiceGenerator — long-lived bulk TCP flows plus a steady
//     arrival process of short "mice" transfers, the classic heavy-tail
//     baseline.
//
// All generators are deterministic — schedules derive from counters,
// never from the simulation RNG — so adding a workload to a seeded run
// perturbs nothing else.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/host.hpp"
#include "sim/simulation.hpp"
#include "tcp/flow.hpp"
#include "util/units.hpp"

namespace p4s::workload {

/// Declarative workload description (the config loader's "workloads"
/// section); resolved against topology hosts by MonitoringSystem.
struct WorkloadSpec {
  enum class Kind : std::uint8_t { kSynFlood, kPortScan, kElephantMice };
  Kind kind = Kind::kElephantMice;
  /// Topology host names: "dtn_int", "psonar_int", "ext0".."ext2",
  /// "psonar_ext0".."psonar_ext2". src = attacker / sender side.
  std::string src = "ext0";
  std::string dst = "dtn_int";
  SimTime start = units::seconds(1);
  SimTime duration = units::seconds(5);
  /// SYN rate (syn_flood, port_scan).
  double pps = 2000.0;
  /// Victim port (syn_flood) / first scanned port (port_scan).
  std::uint16_t port = 443;
  /// Scanned port count (port_scan).
  std::uint32_t port_count = 1024;
  /// Rotating spoofed-source pool size (syn_flood).
  std::uint32_t spoof_count = 1024;
  /// Long-lived bulk flows (elephant_mice).
  std::size_t elephants = 2;
  /// Bytes per elephant; 0 = run until the workload's end.
  std::uint64_t elephant_bytes = 0;
  /// Short-transfer arrival rate and size (elephant_mice).
  double mice_per_second = 5.0;
  std::uint64_t mice_bytes = 64 * 1024;
};

const char* to_string(WorkloadSpec::Kind kind);
/// Inverse of to_string ("syn_flood" / "port_scan" / "elephant_mice");
/// throws std::invalid_argument on unknown names.
WorkloadSpec::Kind workload_kind_from_name(const std::string& name);

class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;

  /// Schedule the workload's events (idempotent is not required; call
  /// once, before or after the run starts).
  virtual void start() = 0;

  virtual std::string_view kind() const = 0;
  virtual std::uint64_t packets_sent() const = 0;
};

/// SYN flood from rotating spoofed sources against one victim.
class SynFloodGenerator final : public TrafficGenerator {
 public:
  SynFloodGenerator(sim::Simulation& sim, net::Host& attacker,
                    net::Ipv4Address victim, const WorkloadSpec& spec);

  void start() override;
  std::string_view kind() const override { return "syn_flood"; }
  std::uint64_t packets_sent() const override { return sent_; }

 private:
  void send_one();

  sim::Simulation& sim_;
  net::Host& attacker_;
  net::Ipv4Address victim_;
  WorkloadSpec spec_;
  std::uint64_t sent_ = 0;
};

/// Sequential-port SYN scan from the attacker's real address.
class PortScanGenerator final : public TrafficGenerator {
 public:
  PortScanGenerator(sim::Simulation& sim, net::Host& attacker,
                    net::Ipv4Address victim, const WorkloadSpec& spec);

  void start() override;
  std::string_view kind() const override { return "port_scan"; }
  std::uint64_t packets_sent() const override { return sent_; }

 private:
  sim::Simulation& sim_;
  net::Host& attacker_;
  net::Ipv4Address victim_;
  WorkloadSpec spec_;
  std::uint64_t sent_ = 0;
};

/// Long-lived bulk flows plus a steady stream of short transfers.
class ElephantMiceGenerator final : public TrafficGenerator {
 public:
  ElephantMiceGenerator(sim::Simulation& sim, net::Host& src,
                        net::Host& dst, const WorkloadSpec& spec);

  void start() override;
  std::string_view kind() const override { return "elephant_mice"; }
  /// Flows launched (packet totals live on the flows themselves).
  std::uint64_t packets_sent() const override { return flows_.size(); }

  const std::vector<std::unique_ptr<tcp::TcpFlow>>& flows() const {
    return flows_;
  }

 private:
  sim::Simulation& sim_;
  net::Host& src_;
  net::Host& dst_;
  WorkloadSpec spec_;
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows_;
};

/// Factory keyed on spec.kind. `src` is the attacker/sender host; `dst`
/// the victim/receiver.
std::unique_ptr<TrafficGenerator> make_generator(sim::Simulation& sim,
                                                 net::Host& src,
                                                 net::Host& dst,
                                                 const WorkloadSpec& spec);

}  // namespace p4s::workload
