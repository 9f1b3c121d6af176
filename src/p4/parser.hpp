// Programmable parser: a state machine that extracts headers from packet
// bytes, mirroring a P4 parser block (start -> ethernet -> ipv4 ->
// {tcp,udp,icmp} -> accept, with udp -> quic when the payload prefix
// carries a QUIC fixed bit). The pipeline only ever sees fields the
// parser extracted — validity bits and all — which is what makes
// downstream code honest about what a data plane can actually observe.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "net/packet.hpp"
#include "net/wire.hpp"
#include "util/units.hpp"

namespace p4s::p4 {

/// Tofino-style intrinsic metadata attached by the target, not the
/// program: arrival port and nanosecond ingress timestamp.
struct IntrinsicMetadata {
  std::uint16_t ingress_port = 0;
  SimTime ingress_ts = 0;
};

/// Extracted Ethernet II header.
struct EthernetHeader {
  std::array<std::uint8_t, 6> dst_mac{};
  std::array<std::uint8_t, 6> src_mac{};
  std::uint16_t ethertype = 0;
};

/// Extracted headers with validity bits.
struct ParsedHeaders {
  bool ethernet_valid = false;
  bool ipv4_valid = false;
  bool tcp_valid = false;
  bool udp_valid = false;
  bool icmp_valid = false;
  bool quic_valid = false;
  EthernetHeader ethernet;
  net::Ipv4Header ipv4;
  net::TcpHeader tcp;
  net::UdpHeader udp;
  net::QuicHeader quic;
  net::IcmpHeader icmp;
};

/// Per-packet context threaded through parser and pipeline.
struct PacketContext {
  std::span<const std::uint8_t> data;
  IntrinsicMetadata meta;
  ParsedHeaders hdr;
};

/// Run the parser state machine over ctx.data, filling ctx.hdr. Returns
/// false when the parser rejects the frame (runt, bad IPv4 version or
/// IHL, truncated options or L4 header); ctx.hdr then keeps the headers
/// extracted before the reject. This is the only code that decodes
/// header bytes: the pipeline, the trace analyzer and the top-talker
/// table all read frames through it.
bool parse(PacketContext& ctx);

}  // namespace p4s::p4
