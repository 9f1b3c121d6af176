#include "p4/p4_switch.hpp"

namespace p4s::p4 {

void P4Switch::on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                                 net::MirrorPoint point,
                                 std::uint32_t /*wire_len*/) {
  PacketContext ctx;
  ctx.data = bytes;
  ctx.meta.ingress_port = point == net::MirrorPoint::kIngress
                              ? kIngressTapPort
                              : kEgressTapPort;
  ctx.meta.ingress_ts = sim_.now();

  if (!parse(ctx)) {
    ++parse_errors_;
    return;
  }
  ++processed_;
  if (program_ != nullptr) program_->ingress(ctx);
}

}  // namespace p4s::p4
