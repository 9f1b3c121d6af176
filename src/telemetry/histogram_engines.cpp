#include "telemetry/histogram_engines.hpp"

#include <array>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "p4/hash.hpp"

namespace p4s::telemetry {

namespace {

std::uint32_t signature32(std::uint32_t flow_id, std::uint32_t word) {
  std::array<std::uint8_t, 8> key{
      static_cast<std::uint8_t>(flow_id >> 24),
      static_cast<std::uint8_t>(flow_id >> 16),
      static_cast<std::uint8_t>(flow_id >> 8),
      static_cast<std::uint8_t>(flow_id),
      static_cast<std::uint8_t>(word >> 24),
      static_cast<std::uint8_t>(word >> 16),
      static_cast<std::uint8_t>(word >> 8),
      static_cast<std::uint8_t>(word),
  };
  return p4::Crc32{0x741B8CD7u}(key);
}

std::uint32_t check_word(std::uint32_t flow_id, std::uint32_t word) {
  return flow_id ^ (word << 1) ^ (word >> 31);
}

}  // namespace

const char* to_string(HistogramEngineConfig::Metric metric) {
  switch (metric) {
    case HistogramEngineConfig::Metric::kRtt: return "rtt";
    case HistogramEngineConfig::Metric::kIat: return "iat";
    case HistogramEngineConfig::Metric::kQueueDelay: return "queue_delay";
  }
  return "?";
}

HistogramEngineConfig::Metric histogram_metric_from_name(
    const std::string& name) {
  if (name == "rtt") return HistogramEngineConfig::Metric::kRtt;
  if (name == "iat") return HistogramEngineConfig::Metric::kIat;
  if (name == "queue_delay") {
    return HistogramEngineConfig::Metric::kQueueDelay;
  }
  throw std::invalid_argument("unknown histogram metric: " + name);
}

HistogramEngine::HistogramEngine(const HistogramEngineConfig& config)
    : name_(std::string(to_string(config.metric)) + "_histogram" +
            (config.id.empty() ? "" : "_" + config.id)),
      hist_(config.histogram),
      sketch_(sketch::DdSketchConfig{config.sketch_alpha,
                                     config.sketch_max_bins, 1.0}) {}

void HistogramEngine::observe(SimTime value_ns) {
  const auto v = static_cast<double>(value_ns);
  hist_.add(v);
  sketch_.add(v);
  ++samples_;
}

RttHistogramEngine::RttHistogramEngine(const HistogramEngineConfig& config)
    : HistogramEngine(config),
      table_(config.signature_slots, Entry{}),
      mask_(static_cast<std::uint32_t>(config.signature_slots - 1)) {
  assert(config.signature_slots > 0 &&
         (config.signature_slots & (config.signature_slots - 1)) == 0);
}

void RttHistogramEngine::on_packet(const FieldView& view) {
  if (view.egress_copy()) return;
  if (view.pure_ack()) {
    on_ack(view.flow_id(), view.tcp_ack(), view.ingress_ts());
  } else if (view.is_tcp() && view.payload_bytes() > 0) {
    on_data(view.rev_flow_id(), view.tcp_seq(), view.payload_bytes(),
            view.ingress_ts());
  }
}

void RttHistogramEngine::on_data(std::uint32_t rev_flow_id,
                                 std::uint32_t seq,
                                 std::uint32_t payload_bytes, SimTime now) {
  const std::uint32_t eack = seq + payload_bytes;
  const std::uint32_t idx = signature32(rev_flow_id, eack) & mask_;
  const std::uint32_t check = check_word(rev_flow_id, eack);
  table_.execute(idx, [&](Entry& e) {
    if (e.ts != 0 && e.check != check) ++evictions_;
    e.check = check;
    e.ts = now;
    return 0;
  });
}

void RttHistogramEngine::on_ack(std::uint32_t flow_id, std::uint32_t ack,
                                SimTime now) {
  const std::uint32_t idx = signature32(flow_id, ack) & mask_;
  const std::uint32_t check = check_word(flow_id, ack);
  std::optional<SimTime> rtt;
  table_.execute(idx, [&](Entry& e) {
    if (e.ts != 0 && e.check == check) {
      rtt = now - e.ts;
      e = Entry{};  // consume the sample
    }
    return 0;
  });
  if (rtt.has_value()) {
    ++matches_;
    observe(*rtt);
  } else {
    ++misses_;
  }
}

IatHistogramEngine::IatHistogramEngine(const HistogramEngineConfig& config)
    : HistogramEngine(config),
      table_(config.signature_slots, Entry{}),
      mask_(static_cast<std::uint32_t>(config.signature_slots - 1)) {
  assert(config.signature_slots > 0 &&
         (config.signature_slots & (config.signature_slots - 1)) == 0);
}

void IatHistogramEngine::on_packet(const FieldView& view) {
  if (!view.egress_copy() || view.payload_bytes() == 0) return;
  const std::uint32_t flow_id = view.flow_id();
  const SimTime now = view.ingress_ts();
  const std::uint32_t idx = flow_id & mask_;
  std::optional<SimTime> gap;
  table_.execute(idx, [&](Entry& e) {
    if (e.last != 0 && e.check == flow_id) {
      if (now >= e.last) gap = now - e.last;
    } else if (e.last != 0) {
      ++collisions_;
    }
    e.check = flow_id;
    e.last = now;
    return 0;
  });
  if (gap.has_value()) observe(*gap);
}

}  // namespace p4s::telemetry
