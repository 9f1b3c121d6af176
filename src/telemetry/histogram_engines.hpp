// Histogram metric engines: switch-wide RTT / IAT / queue-delay
// distributions in fixed register space, following "Enhancements to
// P4TG: Histogram-Based RTT Monitoring in the Data Plane".
//
// The per-flow slot design summarizes at most kFlowSlots flows; these
// engines summarize *every* flow on the monitored link — 100k or 1M
// concurrent — because their state is a fixed-bin histogram plus a
// DDSketch quantile sketch, updated per packet, plus (for RTT and IAT)
// a small signature-indexed table holding one in-flight timestamp per
// hash index. They are PacketEngines: each one picks the copies it
// measures out of the per-packet FieldView stream itself. They are
// deliberately slot-free: clear_slot() is a no-op because there is no
// per-slot state to clear.
//
// Each engine instance covers one configured bin range, so several
// engines over the same metric give per-range histograms (the P4TG
// design's multiple range profiles).
#pragma once

#include <cstdint>
#include <string>

#include "p4/register.hpp"
#include "sketch/ddsketch.hpp"
#include "sketch/histogram.hpp"
#include "telemetry/packet_engine.hpp"
#include "telemetry/types.hpp"

namespace p4s::telemetry {

struct HistogramEngineConfig {
  enum class Metric : std::uint8_t { kRtt = 0, kIat = 1, kQueueDelay = 2 };
  Metric metric = Metric::kRtt;
  /// Optional suffix distinguishing several engines over one metric
  /// (per-range histograms): engine name = "<metric>_histogram[_<id>]".
  std::string id;
  /// Bin edges in nanoseconds.
  sketch::HistogramConfig histogram{};
  /// DDSketch relative-accuracy target for the exported quantiles.
  double sketch_alpha = 0.01;
  std::size_t sketch_max_bins = 2048;
  /// Signature table size for the slot-free RTT/IAT state (power of
  /// two); ignored by the queue-delay engine.
  std::size_t signature_slots = kEackSlots;
};

const char* to_string(HistogramEngineConfig::Metric metric);
/// Inverse of to_string ("rtt" / "iat" / "queue_delay"); throws
/// std::invalid_argument on unknown names.
HistogramEngineConfig::Metric histogram_metric_from_name(
    const std::string& name);

class HistogramEngine : public PacketEngine {
 public:
  explicit HistogramEngine(const HistogramEngineConfig& config);

  /// Record one observed sample (nanoseconds) into histogram + sketch.
  void observe(SimTime value_ns);

  const sketch::Histogram& histogram() const { return hist_; }
  double quantile_ns(double q) const { return sketch_.quantile(q); }
  std::uint64_t samples() const { return samples_; }

  // ---- MetricEngine ---------------------------------------------------
  // Slot-free by design: the summary covers all flows, so releasing a
  // flow's slot has nothing to clear here.
  std::string_view name() const override { return name_; }
  void clear_slot(std::uint16_t) override {}
  bool slot_cleared(std::uint16_t) const override { return true; }

 private:
  std::string name_;
  sketch::Histogram hist_;
  sketch::DdSketch sketch_;
  std::uint64_t samples_ = 0;
};

/// Slot-free RTT histogram: the eACK idiom of Algorithm 1 applied to
/// every TCP flow. Data packets park (signature(rev_flow_id, seq +
/// payload) -> timestamp) in a hash-indexed table; a pure ACK whose
/// (flow_id, ack) signature matches yields one RTT sample. Collisions
/// overwrite (latest wins) and are counted, like the per-flow eACK
/// table — but here no slot lookup gates the measurement. Observes
/// ingress-TAP copies only.
class RttHistogramEngine final : public HistogramEngine {
 public:
  explicit RttHistogramEngine(const HistogramEngineConfig& config);

  void on_packet(const FieldView& view) override;

  std::uint64_t matches() const { return matches_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  /// Data-direction TCP packet with payload (any flow, tracked or not).
  void on_data(std::uint32_t rev_flow_id, std::uint32_t seq,
               std::uint32_t payload_bytes, SimTime now);
  /// Pure ACK (reverse direction).
  void on_ack(std::uint32_t flow_id, std::uint32_t ack, SimTime now);

  struct Entry {
    std::uint32_t check = 0;
    SimTime ts = 0;
  };

  p4::RegisterArray<Entry> table_;
  std::uint32_t mask_;
  std::uint64_t matches_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Slot-free IAT histogram: one last-departure timestamp per hash index,
/// keyed by flow ID with a check word (a colliding flow resets the cell
/// rather than producing a bogus cross-flow gap). Observes egress-TAP
/// copies with payload: departures from the monitored link.
class IatHistogramEngine final : public HistogramEngine {
 public:
  explicit IatHistogramEngine(const HistogramEngineConfig& config);

  void on_packet(const FieldView& view) override;

  std::uint64_t collisions() const { return collisions_; }

 private:
  struct Entry {
    std::uint32_t check = 0;
    SimTime last = 0;
  };

  p4::RegisterArray<Entry> table_;
  std::uint32_t mask_;
  std::uint64_t collisions_ = 0;
};

/// Queue-delay histogram: the TAP-pair match already yields a per-packet
/// queuing delay for *every* packet; this engine just bins it.
class QueueDelayHistogramEngine final : public HistogramEngine {
 public:
  explicit QueueDelayHistogramEngine(const HistogramEngineConfig& config)
      : HistogramEngine(config) {}

  void on_packet(const FieldView& view) override {
    if (view.queue_delay_valid()) observe(view.queue_delay_ns());
  }
};

}  // namespace p4s::telemetry
