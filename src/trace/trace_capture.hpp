// TraceCapture — turns a live run's mirrored traffic into portable pcap
// artifacts.
//
// The capture is a MirrorSink tee: it sits between the optical TAP pair
// and the P4 switch, records every mirrored frame's wire bytes with the
// simulation timestamp at delivery, and forwards the frame unchanged.
// The two TAPs are distinct capture ports — exactly as the paper cables
// each TAP into its own Tofino port — so each mirror point gets its own
// pcap file: `<base>.ingress.pcap` and `<base>.egress.pcap`, both
// LINKTYPE_ETHERNET with nanosecond timestamps. Because wire bytes are
// header-only (payloads are virtual), records carry the true on-wire
// frame length in orig_len and the serialized headers as the captured
// prefix — the standard shape of a snaplen-limited capture, which
// external tools display as expected.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "net/tap.hpp"
#include "sim/simulation.hpp"
#include "trace/pcap.hpp"

namespace p4s::trace {

struct CaptureConfig {
  std::uint32_t snaplen = kDefaultSnaplen;
};

class TraceCapture : public net::MirrorSink {
 public:
  using Config = CaptureConfig;

  /// Capture into caller-owned streams (tests, in-memory round trips).
  TraceCapture(sim::Simulation& sim, net::MirrorSink& next,
               std::ostream& ingress_out, std::ostream& egress_out,
               Config config = {});
  /// Capture into `<path_base>.ingress.pcap` / `<path_base>.egress.pcap`.
  /// Throws PcapError if either file cannot be created.
  TraceCapture(sim::Simulation& sim, net::MirrorSink& next,
               const std::string& path_base, Config config = {});

  /// Record the frame at `sim_.now()` — the delivery time on either
  /// execution path — then forward it unchanged.
  void on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                         net::MirrorPoint point,
                         std::uint32_t wire_len) override;

  std::uint64_t captured(net::MirrorPoint point) const {
    return writer(point).records();
  }
  std::uint64_t captured_total() const {
    return ingress_->records() + egress_->records();
  }
  void flush();

  /// The per-port file naming convention.
  static std::string port_path(const std::string& base,
                               net::MirrorPoint point);

 private:
  PcapWriter& writer(net::MirrorPoint point) {
    return point == net::MirrorPoint::kIngress ? *ingress_ : *egress_;
  }
  const PcapWriter& writer(net::MirrorPoint point) const {
    return point == net::MirrorPoint::kIngress ? *ingress_ : *egress_;
  }

  sim::Simulation& sim_;
  net::MirrorSink& next_;
  std::unique_ptr<PcapWriter> ingress_;
  std::unique_ptr<PcapWriter> egress_;
};

}  // namespace p4s::trace
