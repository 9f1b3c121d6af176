// Packet model.
//
// Packets are small value types: headers plus a virtual payload length.
// Payload *contents* are never materialized — every measurement in the
// paper depends only on header fields, lengths and timing — which keeps
// the simulator allocation-free on the data path. Byte-level header
// serialization for the P4 parser lives in net/wire.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "util/units.hpp"

namespace p4s::net {

using Ipv4Address = std::uint32_t;

/// Build an address from dotted-quad octets, e.g. ipv4(10,0,0,1).
constexpr Ipv4Address ipv4(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                           std::uint8_t d) {
  return (static_cast<std::uint32_t>(a) << 24) |
         (static_cast<std::uint32_t>(b) << 16) |
         (static_cast<std::uint32_t>(c) << 8) | d;
}

std::string to_string(Ipv4Address addr);

enum class Protocol : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

// TCP flag bits (matching the wire layout's low byte).
namespace tcpflags {
inline constexpr std::uint8_t kFin = 0x01;
inline constexpr std::uint8_t kSyn = 0x02;
inline constexpr std::uint8_t kRst = 0x04;
inline constexpr std::uint8_t kPsh = 0x08;
inline constexpr std::uint8_t kAck = 0x10;
}  // namespace tcpflags

struct Ipv4Header {
  std::uint8_t version = 4;
  std::uint8_t ihl = 5;          // 32-bit words; 5 -> 20 bytes, no options
  std::uint8_t dscp = 0;
  std::uint16_t total_len = 0;   // header + L4 header + payload, bytes
  std::uint16_t id = 0;          // per-sender increasing; used by the queue
                                 // monitor to match TAP copies
  std::uint8_t ttl = 64;
  std::uint8_t protocol = static_cast<std::uint8_t>(Protocol::kTcp);
  Ipv4Address src = 0;
  Ipv4Address dst = 0;

  std::uint32_t header_bytes() const { return ihl * 4u; }
};

/// SACK block: [start, end) in sequence space (RFC 2018).
struct SackBlock {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t data_offset = 5;  // 32-bit words; 5 -> 20 bytes, no options
  std::uint8_t flags = 0;
  // Advertised window. Real TCP sends a 16-bit field plus a window-scale
  // option; the simulator stores the scaled value directly and the wire
  // codec encodes it as window>>kWindowShift with the shift fixed
  // topology-wide (matching how DTNs negotiate a constant scale).
  std::uint32_t window = 0;
  // SACK option (RFC 2018), up to 3 blocks. Carried in the header struct
  // for endpoint use; the wire codec does NOT serialize options and the
  // P4 parser never extracts them — matching real telemetry pipelines,
  // which ignore TCP options.
  std::array<SackBlock, 3> sack{};
  std::uint8_t sack_count = 0;

  std::uint32_t header_bytes() const { return data_offset * 4u; }
  bool has(std::uint8_t flag) const { return (flags & flag) != 0; }
};

/// Fixed window-scale shift used by the wire codec (the RFC 7323 maximum,
/// 2^14: encodes windows up to ~1 GiB, enough for high-BDP Science DMZ
/// flows).
inline constexpr unsigned kWindowShift = 14;

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 8;  // header + payload

  std::uint32_t header_bytes() const { return 8; }
};

struct IcmpHeader {
  std::uint8_t type = 8;  // 8 = echo request, 0 = echo reply
  std::uint8_t code = 0;
  std::uint16_t ident = 0;
  std::uint16_t seq = 0;

  std::uint32_t header_bytes() const { return 8; }
};

/// QUIC-like packet header carried inside a UDP payload (a fixed-shape
/// subset of RFC 9000): long headers for the handshake (version + both
/// connection IDs visible), short headers for 1-RTT packets (DCID + the
/// latency spin bit, §17.4). Connection IDs are always 8 bytes and
/// packet numbers are always encoded on 4 — the simulator never needs
/// variable-length encodings, and a fixed shape keeps the P4 parse
/// graph honest about what a switch can extract without loops.
///
/// Everything BEYOND this header — stream data, ACK frames — is
/// ciphertext to the network: the wire codec emits only the header and
/// an opaque payload length, exactly like real QUIC short packets.
struct QuicHeader {
  bool long_form = false;  // long (handshake) vs short (1-RTT) header
  bool spin = false;       // latency spin bit; short headers only
  std::uint8_t type = 0;   // long-header packet type (0 = Initial)
  std::uint32_t version = 1;  // long headers only (QUIC v1)
  std::uint64_t dcid = 0;
  std::uint64_t scid = 0;  // long headers only
  std::uint32_t packet_number = 0;

  // byte0 + version(4) + dcid_len(1) + dcid(8) + scid_len(1) + scid(8)
  // + pn(4) = 27; short: byte0 + dcid(8) + pn(4) = 13.
  std::uint32_t header_bytes() const { return long_form ? 27u : 13u; }
};

/// Inclusive packet-number range [start, end] inside an ACK frame.
struct QuicAckRange {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
};

/// Modeled QUIC frame contents — the *plaintext* inside the encrypted
/// payload. Carried on the value type but NEVER serialized by the wire
/// codec (like AppData): the P4 pipeline sees only the opaque payload
/// length, so ACKs are invisible to passive observers. Only endpoints
/// decrypt these.
struct QuicFrames {
  // STREAM frame: [stream_offset, stream_offset + stream_len).
  bool has_stream = false;
  std::uint64_t stream_offset = 0;
  std::uint32_t stream_len = 0;
  bool stream_fin = false;
  // ACK frame: up to 3 ranges, ack[0] holds the largest packet number.
  bool has_ack = false;
  std::array<QuicAckRange, 3> ack{};
  std::uint8_t ack_count = 0;
};

/// 5-tuple flow key (§3.2: flows are characterized by their 5-tuple).
struct FiveTuple {
  Ipv4Address src_ip = 0;
  Ipv4Address dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  /// The reversed tuple identifies the ACK direction of a TCP flow (§4).
  FiveTuple reversed() const {
    return FiveTuple{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  friend bool operator==(const FiveTuple&, const FiveTuple&) = default;

  std::string to_string() const;
};

/// Modeled application payload contents: the first bytes a measurement
/// tool writes into its UDP payload (a sequence number and a send
/// timestamp, as OWAMP-style tools do). Carried on the value type but
/// NEVER serialized by the wire codec — the P4 pipeline cannot see it,
/// only endpoints can, exactly like real payload bytes.
struct AppData {
  std::uint32_t seq = 0;
  SimTime timestamp = 0;
};

struct Packet {
  Ipv4Header ip;
  std::variant<TcpHeader, UdpHeader, IcmpHeader> l4;
  AppData app;
  /// QUIC header riding the UDP payload (valid when has_quic). The
  /// header bytes ARE serialized (observable); `quic_frames` is not.
  QuicHeader quic;
  QuicFrames quic_frames;
  bool has_quic = false;

  bool is_tcp() const { return std::holds_alternative<TcpHeader>(l4); }
  bool is_udp() const { return std::holds_alternative<UdpHeader>(l4); }
  bool is_icmp() const { return std::holds_alternative<IcmpHeader>(l4); }
  bool is_quic() const { return has_quic && is_udp(); }

  TcpHeader& tcp() { return std::get<TcpHeader>(l4); }
  const TcpHeader& tcp() const { return std::get<TcpHeader>(l4); }
  UdpHeader& udp() { return std::get<UdpHeader>(l4); }
  const UdpHeader& udp() const { return std::get<UdpHeader>(l4); }
  IcmpHeader& icmp() { return std::get<IcmpHeader>(l4); }
  const IcmpHeader& icmp() const { return std::get<IcmpHeader>(l4); }

  std::uint32_t l4_header_bytes() const;
  /// L4 payload length in bytes (ip.total_len minus both header lengths).
  std::uint32_t payload_bytes() const;
  /// Total on-wire size used for serialization timing. We charge the IP
  /// total length plus a fixed L2 overhead (Ethernet header+FCS+preamble).
  std::uint32_t wire_bytes() const { return ip.total_len + kL2Overhead; }

  FiveTuple five_tuple() const;

  static constexpr std::uint32_t kL2Overhead = 38;
};

/// Build a TCP packet with consistent lengths.
Packet make_tcp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t seq, std::uint32_t ack,
                       std::uint8_t flags, std::uint32_t payload,
                       std::uint32_t window);

/// Build a UDP packet with consistent lengths.
Packet make_udp_packet(Ipv4Address src, Ipv4Address dst,
                       std::uint16_t src_port, std::uint16_t dst_port,
                       std::uint32_t payload);

/// Build an ICMP echo request/reply with consistent lengths.
Packet make_icmp_packet(Ipv4Address src, Ipv4Address dst, std::uint8_t type,
                        std::uint16_t ident, std::uint16_t seq,
                        std::uint32_t payload);

/// Build a QUIC packet (UDP + QUIC header) with consistent lengths.
/// `payload` is the opaque encrypted-frame length in bytes (NOT
/// including the QUIC header itself, which hdr.header_bytes() adds).
Packet make_quic_packet(Ipv4Address src, Ipv4Address dst,
                        std::uint16_t src_port, std::uint16_t dst_port,
                        const QuicHeader& hdr, std::uint32_t payload);

/// Anything that consumes packets (hosts, switch ports, links, pipelines).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void on_packet(const Packet& pkt) = 0;
};

}  // namespace p4s::net
