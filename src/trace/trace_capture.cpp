#include "trace/trace_capture.hpp"

namespace p4s::trace {

TraceCapture::TraceCapture(sim::Simulation& sim, net::MirrorSink& next,
                           std::ostream& ingress_out,
                           std::ostream& egress_out, Config config)
    : sim_(sim),
      next_(next),
      ingress_(std::make_unique<PcapWriter>(ingress_out, config.snaplen)),
      egress_(std::make_unique<PcapWriter>(egress_out, config.snaplen)) {}

TraceCapture::TraceCapture(sim::Simulation& sim, net::MirrorSink& next,
                           const std::string& path_base, Config config)
    : sim_(sim),
      next_(next),
      ingress_(std::make_unique<PcapWriter>(
          port_path(path_base, net::MirrorPoint::kIngress), config.snaplen)),
      egress_(std::make_unique<PcapWriter>(
          port_path(path_base, net::MirrorPoint::kEgress), config.snaplen)) {}

std::string TraceCapture::port_path(const std::string& base,
                                    net::MirrorPoint point) {
  return base + (point == net::MirrorPoint::kIngress ? ".ingress.pcap"
                                                     : ".egress.pcap");
}

void TraceCapture::on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                                     net::MirrorPoint point,
                                     std::uint32_t wire_len) {
  // On the wire this frame was `wire_len` bytes; we only captured the
  // serialized headers (payloads are virtual).
  writer(point).write(sim_.now(), bytes,
                      wire_len >= bytes.size()
                          ? wire_len
                          : static_cast<std::uint32_t>(bytes.size()));
  next_.on_mirrored_bytes(bytes, point, wire_len);
}

void TraceCapture::flush() {
  ingress_->flush();
  egress_->flush();
}

}  // namespace p4s::trace
