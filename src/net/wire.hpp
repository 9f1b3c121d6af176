// Byte-level header serialization (network byte order, real layouts, real
// IPv4 header checksum). The P4 switch's programmable parser (p4::parse)
// consumes these bytes and is their only decoder, so header extraction in
// the pipeline is genuine parsing rather than struct copying. Payload
// bytes are virtual (zeros are implied by total_len) and never emitted.
//
// Frames start with an Ethernet II header (as every P4 parser's start
// state expects): MAC addresses are synthesized deterministically from
// the IP endpoints (locally-administered prefix 02:00 + the address),
// EtherType 0x0800.
#pragma once

#include <cstdint>
#include <span>

#include "net/packet.hpp"

namespace p4s::net {

inline constexpr std::size_t kEthernetHeaderBytes = 14;
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

/// Largest QUIC header the codec emits (the fixed-shape long header;
/// short headers are 13 bytes). Serialized after the UDP header when a
/// packet carries one — the observable part of a QUIC packet.
inline constexpr std::size_t kMaxQuicHeaderBytes = 27;
/// Short (1-RTT) header: flags + 8-byte DCID + 4-byte packet number.
inline constexpr std::size_t kQuicShortHeaderBytes = 13;

/// Maximum serialized header size we ever produce (Ethernet II + IPv4
/// at its maximum IHL of 15 words + largest L4 header + QUIC long
/// header). The simulator's own packets carry no options (IHL 5); tests
/// serialize option-carrying headers to exercise the parser's skip path.
inline constexpr std::size_t kMaxHeaderBytes =
    kEthernetHeaderBytes + 60 + 20 + kMaxQuicHeaderBytes;

/// Deterministic MAC for an IPv4 address (02:00:aa:bb:cc:dd), written
/// into `out` (6 bytes).
void mac_for(Ipv4Address addr, std::span<std::uint8_t> out);

/// Serialize IPv4 + L4 headers of `pkt` into `out` (must hold at least
/// kMaxHeaderBytes), plus the QUIC header when pkt.has_quic — the
/// encrypted frames behind it are never emitted. Returns the number of
/// bytes written. Computes and embeds the IPv4 header checksum.
std::size_t serialize_headers(const Packet& pkt, std::span<std::uint8_t> out);

/// RFC 1071 ones'-complement checksum over a byte span.
std::uint16_t internet_checksum(std::span<const std::uint8_t> bytes);

}  // namespace p4s::net
