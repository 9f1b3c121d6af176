// Passive optical TAP pair (§3.1, §4.2).
//
// The paper places one TAP on the fiber entering the core switch and one
// on the fiber leaving it; both mirror every photon to the P4 switch. The
// model duplicates each packet at the switch's ingress hook and at the
// monitored port's egress hook and turns the copy into a MirrorFrame —
// the bytes a monitor port receives, tagged with its mirror point — that
// reaches the monitor after a fixed (equal) TAP-to-switch latency. Equal
// latencies are what let the P4 program recover the queuing delay from
// the two copies' arrival-time difference. The frame is the only thing
// that travels, and MirrorSink has the one entry point that takes it.
//
// Hot-path design: the TAP schedules nothing. It serializes each copy
// once, stamps the frame with its delivery time and pushes that same
// frame across every MirrorBoundary it feeds (one per monitoring site on
// the tapped port: the fabric executor's per-site shards), each of which
// replays it at that time; the constant TAP latency makes the stream
// non-decreasing in time, which is all a boundary needs.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/wire.hpp"
#include "sim/simulation.hpp"

namespace p4s::net {

enum class MirrorPoint : std::uint8_t {
  kIngress = 0,  // copy taken as the packet enters the core switch
  kEgress = 1,   // copy taken as the packet leaves the core switch
};

/// Consumer of mirrored traffic (the P4 switch's two monitor ports).
/// Like a Tofino port cabled to a TAP, a sink sees only the frame: its
/// serialized header bytes (valid only for the duration of the call),
/// the mirror point, and the original on-wire frame length (pcap records
/// preserve it).
class MirrorSink {
 public:
  virtual ~MirrorSink() = default;
  virtual void on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                                 MirrorPoint point, std::uint32_t wire_len) = 0;
  /// Packet-level convenience (tests, benches): serialize `pkt` and
  /// deliver it with its on-wire length, Ethernet + IP total length.
  void on_mirrored(const Packet& pkt, MirrorPoint point);
};

/// One mirror copy as a monitor port receives it: the serialized header
/// bytes, the mirror point, the original on-wire frame length and the
/// delivery timestamp (mirror time + TAP latency, also the fabric's
/// conservative lookahead bound). The TAP pushes these across a shard
/// boundary, whose FIFO order is the frame order. Trivially constructible
/// (`MirrorFrame frame{}` zeroes it) so that a boundary's ring of frames
/// is not written at construction.
struct MirrorFrame {
  SimTime at;
  std::uint32_t wire_len;
  std::uint8_t len;
  MirrorPoint point;
  std::array<std::uint8_t, kMaxHeaderBytes> bytes;

  void deliver_to(MirrorSink& sink) const {
    sink.on_mirrored_bytes(std::span<const std::uint8_t>(bytes.data(), len),
                           point, wire_len);
  }
};
static_assert(std::is_trivially_default_constructible_v<MirrorFrame>);

/// Producer end of a shard boundary. Implemented by the fabric's
/// per-switch shard; push() must accept frames in non-decreasing `at`
/// order and may block (never deadlock) when the boundary is congested.
class MirrorBoundary {
 public:
  virtual ~MirrorBoundary() = default;
  virtual void push(const MirrorFrame& frame) = 0;
};

class OpticalTapPair {
 public:
  /// Every copy is stamped for delivery `tap_latency` after the mirror
  /// time on `sim`'s clock. The latency models the fiber + TAP path to
  /// the monitor; it is the same for both mirror points, so it cancels in
  /// delay differences.
  OpticalTapPair(sim::Simulation& sim, SimTime tap_latency)
      : sim_(sim), tap_latency_(tap_latency) {}

  // attach() hands the switch and port hooks holding `this`.
  OpticalTapPair(const OpticalTapPair&) = delete;
  OpticalTapPair& operator=(const OpticalTapPair&) = delete;

  /// Every copy also goes to `boundary`, after the boundaries added
  /// before it.
  void add_boundary(MirrorBoundary& boundary) {
    boundaries_.push_back(&boundary);
  }

  /// Attach the ingress-side TAP to a switch (mirrors every arrival) and
  /// the egress-side TAP to one of its output ports (mirrors every
  /// departure on the monitored link).
  void attach(LegacySwitch& sw, OutputPort& monitored_port);

  /// Copies taken, each counted once however many boundaries it feeds.
  std::uint64_t mirrored_pkts() const { return mirrored_pkts_; }
  /// Always 0 (no serialize cache); kept only for bench/e2e/rep.cpp.
  std::uint64_t serialize_cache_hits() const { return 0; }

 private:
  void mirror(const Packet& pkt, MirrorPoint point);

  sim::Simulation& sim_;
  SimTime tap_latency_;
  std::vector<MirrorBoundary*> boundaries_;
  std::uint64_t mirrored_pkts_ = 0;
};

}  // namespace p4s::net
