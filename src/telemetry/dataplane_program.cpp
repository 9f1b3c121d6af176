#include "telemetry/dataplane_program.hpp"

#include <array>

#include "p4/hash.hpp"

namespace p4s::telemetry {

namespace {

/// The optional engines Config names, in dispatch and export order:
/// histograms in config order, then the spin-bit engine, then NIDS.
std::vector<std::unique_ptr<PacketEngine>> make_optional_engines(
    const DataPlaneProgram::Config& config) {
  std::vector<std::unique_ptr<PacketEngine>> engines;
  for (const HistogramEngineConfig& hc : config.histograms) {
    switch (hc.metric) {
      case HistogramEngineConfig::Metric::kRtt:
        engines.push_back(std::make_unique<RttHistogramEngine>(hc));
        break;
      case HistogramEngineConfig::Metric::kIat:
        engines.push_back(std::make_unique<IatHistogramEngine>(hc));
        break;
      case HistogramEngineConfig::Metric::kQueueDelay:
        engines.push_back(std::make_unique<QueueDelayHistogramEngine>(hc));
        break;
    }
  }
  if (config.spin_rtt.has_value()) {
    engines.push_back(std::make_unique<SpinRttEngine>(*config.spin_rtt));
  }
  if (config.nids.has_value()) {
    engines.push_back(std::make_unique<NidsFeatureEngine>(*config.nids));
  }
  return engines;
}

}  // namespace

DataPlaneProgram::DataPlaneProgram(Config config)
    : tracker_(config.tracker),
      rtt_loss_(config.eack_slots),
      queue_(config.queue),
      limit_(config.limit),
      iat_(config.iat),
      int_(config.int_export),
      optional_engines_(make_optional_engines(config)) {
  // The seven Algorithm-1 stages stay hard-wired in ingress() (they share
  // the tracker's slot lookup); registration order matches the
  // historical release order, and release_slot and the invariant checks
  // iterate this list.
  register_engine(tracker_);
  register_engine(rtt_loss_);
  register_engine(queue_);
  register_engine(limit_);
  register_engine(iat_);
  register_engine(int_);
  register_engine(counters_);
  for (const auto& engine : optional_engines_) {
    register_packet_engine(*engine);
  }
}

net::FiveTuple DataPlaneProgram::tuple_from(const p4::ParsedHeaders& hdr) {
  net::FiveTuple t;
  t.src_ip = hdr.ipv4.src;
  t.dst_ip = hdr.ipv4.dst;
  t.protocol = hdr.ipv4.protocol;
  if (hdr.tcp_valid) {
    t.src_port = hdr.tcp.src_port;
    t.dst_port = hdr.tcp.dst_port;
  } else if (hdr.udp_valid) {
    t.src_port = hdr.udp.src_port;
    t.dst_port = hdr.udp.dst_port;
  } else if (hdr.icmp_valid) {
    t.src_port = hdr.icmp.ident;
    t.dst_port = hdr.icmp.ident;
  }
  return t;
}

std::uint32_t DataPlaneProgram::packet_signature(
    const std::array<std::uint8_t, 13>& tuple_key,
    const p4::ParsedHeaders& hdr) {
  // Identify a packet *instance* so the two TAP copies can be matched:
  // 5-tuple + IPv4 identification + (for TCP) sequence number. The IP id
  // alone cycles every 64k packets per host; adding the sequence number
  // pushes collisions out beyond any realistic in-switch dwell time.
  std::array<std::uint8_t, 19> key{};
  std::copy(tuple_key.begin(), tuple_key.end(), key.begin());
  key[13] = static_cast<std::uint8_t>(hdr.ipv4.id >> 8);
  key[14] = static_cast<std::uint8_t>(hdr.ipv4.id);
  std::uint32_t seq = 0;
  if (hdr.tcp_valid) seq = hdr.tcp.seq;
  key[15] = static_cast<std::uint8_t>(seq >> 24);
  key[16] = static_cast<std::uint8_t>(seq >> 16);
  key[17] = static_cast<std::uint8_t>(seq >> 8);
  key[18] = static_cast<std::uint8_t>(seq);
  return p4::Crc32{0x04C11DB7u}(key);
}

const p4::FlowKey& DataPlaneProgram::flow_key_for(
    const net::FiveTuple& tuple) {
  if (memo_valid_ && memo_.tuple == tuple) return memo_;
  memo_ = p4::FlowKey::from(tuple);
  memo_valid_ = true;
  return memo_;
}

void DataPlaneProgram::ingress(p4::PacketContext& ctx) {
  if (!ctx.hdr.ipv4_valid) return;
  const p4::FlowKey& fk = flow_key_for(tuple_from(ctx.hdr));
  const std::uint32_t pkt_sig = packet_signature(fk.key, ctx.hdr);
  const SimTime now = ctx.meta.ingress_ts;
  const bool egress_copy =
      ctx.meta.ingress_port != p4::P4Switch::kIngressTapPort;

  // One field derivation per copy, shared by the Algorithm-1 stages
  // below and every registered packet engine: the accessor table is THE
  // definition of each field's arithmetic.
  FieldView view(ctx, fk, egress_copy);

  if (!egress_copy) {
    ++ingress_copies_;
    queue_.on_ingress_copy(pkt_sig, now);
    process_measurement_path(view);
  } else {
    // Egress-TAP copy: close the TAP pair, attribute the delay to the
    // flow if it is tracked, and feed the classifier's queuing signal.
    // The IAT monitor also runs here: departures on the monitored link
    // are the signal that collapses instantly under an LOS blockage
    // (§5.4.3), whereas arrivals keep flowing until TCP itself stalls.
    ++egress_copies_;
    const std::uint32_t flow_id = fk.flow_id;
    const std::optional<std::uint16_t> slot = tracker_.dp_slot_of(flow_id);
    const std::optional<SimTime> delay =
        queue_.on_egress_copy(pkt_sig, slot, now);
    if (delay.has_value()) view.set_queue_delay(*delay);
    if (slot.has_value()) {
      if (delay.has_value()) limit_.on_queue_delay(*slot, *delay);
      if (view.payload_bytes() > 0) {
        iat_.on_data(*slot, now);
        int_.on_egress(*slot, flow_id, view.tcp_seq(), delay.value_or(0),
                       now);
      }
    }
  }
  // The packet engines see the copy after the built-in stages, so the
  // egress view already carries the matched queue delay.
  for (PacketEngine* engine : packet_engines_) engine->on_packet(view);
}

void DataPlaneProgram::process_measurement_path(const FieldView& view) {
  const p4::PacketContext& ctx = view.ctx();
  const p4::FlowKey& fk = view.flow_key();
  const SimTime now = view.ingress_ts();
  const bool is_tcp = view.is_tcp();
  const std::uint32_t payload = view.payload_bytes();
  const bool fin = view.fin();

  if (view.pure_ack()) {
    // ACK branch of Algorithm 1: this packet travels the reverse
    // direction; hash of its reversed tuple is the data flow's ID.
    const std::uint32_t ack_flow_id = fk.flow_id;
    const std::uint32_t data_flow_id = fk.rev_flow_id;
    if (auto slot = tracker_.dp_slot_of(data_flow_id)) {
      rtt_loss_.on_ack_packet(
          RttLossEngine::AckPacketView{ack_flow_id, *slot,
                                       ctx.hdr.tcp.ack},
          now);
      limit_.on_ack(*slot, ctx.hdr.tcp.ack, now);
    }
    return;
  }

  if (payload == 0 && !fin) return;  // SYN/SYN-ACK/etc: no measurements

  const auto slot = tracker_.on_data_packet(fk, payload, now);
  if (!slot.has_value()) return;

  counters_.on_data(*slot, ctx.hdr.ipv4.total_len, now);
  for (PacketEngine* engine : packet_engines_) {
    engine->on_tracked_data(*slot, view);
  }

  if (is_tcp) {
    const std::uint32_t rev_flow_id = fk.rev_flow_id;
    const bool loss = rtt_loss_.on_data_packet(
        RttLossEngine::DataPacketView{*slot, rev_flow_id, ctx.hdr.tcp.seq,
                                      payload},
        now);
    if (loss) limit_.on_loss(*slot);
    limit_.on_data(*slot, ctx.hdr.tcp.seq, payload, now);
    if (fin) fin_digests_.emit(FlowFinDigest{*slot, now});
  }
}

void DataPlaneProgram::release_slot(std::uint16_t slot) {
  for (MetricEngine* engine : engines_) engine->clear_slot(slot);
}

bool DataPlaneProgram::slot_cleared(std::uint16_t slot) const {
  for (const MetricEngine* engine : engines_) {
    if (!engine->slot_cleared(slot)) return false;
  }
  return true;
}

std::size_t DataPlaneProgram::pending_digests() const {
  std::size_t total = fin_digests_.pending();
  for (const MetricEngine* engine : engines_) {
    total += engine->pending_digests();
  }
  return total;
}

}  // namespace p4s::telemetry
