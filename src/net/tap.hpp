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
// that travels, on either execution path, and MirrorSink has the one
// entry point that takes it.
//
// Hot-path design: a frame is written into a reusable ring (no per-copy
// closure capturing the packet) and the delivery event captures only
// `this` — the constant TAP latency makes deliveries strictly FIFO. Each
// packet's wire bytes are serialized once and shared between its ingress
// and egress copies through a small uid-keyed cache; the copies differ
// only in the TTL the core switch decremented, which is patched in place
// with an incremental checksum update instead of re-serializing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
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
/// delivery timestamp (mirror time + TAP latency — on the parallel path
/// also the conservative lookahead bound). The serial path queues these
/// on the TAP's own ring; the parallel path pushes them across a shard
/// boundary, whose FIFO order is the frame order.
struct MirrorFrame {
  SimTime at = 0;
  std::uint32_t wire_len = 0;
  std::uint8_t len = 0;
  MirrorPoint point = MirrorPoint::kIngress;
  std::array<std::uint8_t, kMaxHeaderBytes> bytes;

  void deliver_to(MirrorSink& sink) const {
    sink.on_mirrored_bytes(std::span<const std::uint8_t>(bytes.data(), len),
                           point, wire_len);
  }
};

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
  /// `tap_latency` models the fiber + TAP path to the monitor; it is the
  /// same for both mirror points, so it cancels in delay differences.
  OpticalTapPair(sim::Simulation& sim, MirrorSink& sink,
                 SimTime tap_latency = units::microseconds(1))
      : sim_(sim), sink_(sink), tap_latency_(tap_latency) {}

  /// Attach the ingress-side TAP to a switch (mirrors every arrival) and
  /// the egress-side TAP to one of its output ports (mirrors every
  /// departure on the monitored link).
  void attach(LegacySwitch& sw, OutputPort& monitored_port);

  /// Parallel-fabric mode: route mirror copies across `boundary` instead
  /// of scheduling deliveries on this timeline. The shard on the other
  /// side replays each frame at `frame.at` against its own clock and
  /// feeds it to the sink. Pass nullptr to return to in-timeline
  /// delivery (the serial path, bit-for-bit unchanged).
  void set_boundary(MirrorBoundary* boundary) { boundary_ = boundary; }

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
  void deliver_front();
  std::uint8_t serialize_shared(const Packet& pkt,
                                std::array<std::uint8_t, kMaxHeaderBytes>& out);

  MirrorFrame& ring_push();
  void ring_grow();

  sim::Simulation& sim_;
  MirrorSink& sink_;
  SimTime tap_latency_;
  MirrorBoundary* boundary_ = nullptr;
  std::uint64_t mirrored_pkts_ = 0;
  std::uint64_t cache_hits_ = 0;

  // Growable power-of-two ring of frames awaiting delivery; slots are
  // reused, so steady state allocates nothing.
  std::vector<MirrorFrame> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;

  std::vector<CacheEntry> cache_ = std::vector<CacheEntry>(kCacheSlots);
};

}  // namespace p4s::net
