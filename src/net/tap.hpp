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
// Hot-path design: the TAP schedules nothing. It stamps each frame with
// its delivery time and pushes it across a MirrorBoundary (the fabric
// executor's per-switch shard), which replays it at that time; the
// constant TAP latency makes the stream non-decreasing in time, which
// is all the boundary needs. Each packet's wire bytes are serialized
// once and shared between its ingress and egress copies through a small
// uid-keyed cache; the copies differ only in the TTL the core switch
// decremented, which is patched in place with an incremental checksum
// update instead of re-serializing.
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
  /// Every copy goes to `boundary`, stamped for delivery `tap_latency`
  /// after the mirror time on `sim`'s clock. The latency models the
  /// fiber + TAP path to the monitor; it is the same for both mirror
  /// points, so it cancels in delay differences.
  OpticalTapPair(sim::Simulation& sim, MirrorBoundary& boundary,
                 SimTime tap_latency)
      : sim_(sim), boundary_(boundary), tap_latency_(tap_latency) {}

  /// Attach the ingress-side TAP to a switch (mirrors every arrival) and
  /// the egress-side TAP to one of its output ports (mirrors every
  /// departure on the monitored link).
  void attach(LegacySwitch& sw, OutputPort& monitored_port);

  std::uint64_t mirrored_pkts() const { return mirrored_pkts_; }
  /// Copies whose wire bytes were reused from the serialize-once cache
  /// (the egress copy of every packet both TAPs saw).
  std::uint64_t serialize_cache_hits() const { return cache_hits_; }

 private:
  struct CacheEntry {
    std::uint64_t uid = 0;  // 0 = empty (real packets have uid > 0)
    std::array<std::uint8_t, kMaxHeaderBytes> bytes;
    std::uint8_t len = 0;
    std::uint8_t ttl = 0;
  };
  // Direct-mapped: must comfortably cover the packets in flight between
  // a packet's two mirror points (bounded by the core switch's queue).
  static constexpr std::size_t kCacheSlots = 1024;

  void mirror(const Packet& pkt, MirrorPoint point);
  std::uint8_t serialize_shared(const Packet& pkt,
                                std::array<std::uint8_t, kMaxHeaderBytes>& out);

  sim::Simulation& sim_;
  MirrorBoundary& boundary_;
  SimTime tap_latency_;
  std::uint64_t mirrored_pkts_ = 0;
  std::uint64_t cache_hits_ = 0;

  std::vector<CacheEntry> cache_ = std::vector<CacheEntry>(kCacheSlots);
};

}  // namespace p4s::net
