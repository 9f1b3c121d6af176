// The switch control plane (§3.2, Figure 5b).
//
// The paper's four extraction timers — t_N (bytes), t_P (losses), t_R
// (RTT), t_Q (queue occupancy) — are instances of one generic
// MetricExtractor: a descriptor holding the report name, the value key,
// a register-reader callback and (optionally) per-flow / per-tick hooks.
// Each extractor runs on its own timer, reads the data plane's registers
// through the driver API, converts raw values to metrics (throughput
// from byte deltas, loss percentage, occupancy from queuing delay vs.
// buffer drain time) and emits Report_v1 documents to the configured
// sink. Each extractor has an optional alert threshold (a_N..a_Q): a
// breach emits an alert report, invokes the alert callback, and boosts
// that extractor's rate to its boosted interval until the value falls
// back below the threshold (§3.2). Adding a fifth metric is one
// register_extractor() call — no fork of the timer logic.
//
// A metric's name is its only identity: config-P4 configures it by name,
// reports and alerts carry it, and every extractor's timer and alert
// configuration, paper and extension alike, is one entry of the
// name-keyed ControlPlaneConfig::metrics. A config() snapshot handed to
// a new control plane therefore reproduces every timer.
//
// A digest poll loop consumes data-plane digests (new long flow, FIN,
// microburst, blockage) and an idle scan finalizes flows that stopped
// sending, emitting the paper's terminated-long-flow report (§3.3.2).
// On every throughput tick the control plane also derives the traffic
// statistics of §5.3: link utilization, active flow count, aggregate
// bytes/packets and Jain's fairness index.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "controlplane/report.hpp"
#include "sim/simulation.hpp"
#include "telemetry/dataplane_program.hpp"
#include "util/stats.hpp"

namespace p4s::cp {

struct MetricConfig {
  /// Extraction interval (t_X). samples_per_second = 1e9 / interval.
  SimTime interval = units::seconds(1);
  /// Alert threshold (a_X); disabled unless alert_enabled. Semantics:
  /// throughput bps, loss %, RTT ms, occupancy %.
  double alert_threshold = 0.0;
  bool alert_enabled = false;
  /// Interval while the threshold is exceeded.
  SimTime boosted_interval = units::milliseconds(100);
};

struct ControlPlaneConfig {
  /// Timer/alert configuration of every live extractor, keyed by metric
  /// name. Registering an extractor adds its default unless an entry is
  /// already present (the present entry wins); unregistering erases it.
  /// An entry whose name never registers is kept but never applied, so
  /// a misspelled name set by hand has no effect.
  std::map<std::string, MetricConfig, std::less<>> metrics;
  /// Idle time after which a tracked flow is considered terminated.
  SimTime flow_idle_timeout = units::seconds(2);
  SimTime digest_poll_interval = units::milliseconds(10);
  /// Monitored core-switch characteristics, needed to turn queuing delay
  /// into occupancy: occupancy = delay / (buffer_bytes * 8 / rate).
  std::uint64_t core_buffer_bytes = 0;
  std::uint64_t bottleneck_bps = 0;
  /// Site / monitored-switch identity stamped into every emitted report
  /// as "switch_id". Empty = untagged (the single-switch legacy format,
  /// byte-identical to pre-fabric reports).
  std::string switch_id;
};

class ControlPlane {
 public:
  ControlPlane(sim::Simulation& sim, telemetry::DataPlaneProgram& program,
               ControlPlaneConfig config);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  void set_sink(ReportSink* sink) { sink_ = sink; }
  ReportSink* sink() const { return sink_; }

  /// Start the extraction timers and digest polling.
  void start();

  // ---- Run-time configuration (driven by pSConfig's config-P4) --------
  // Every call names a live extractor, paper or extension, and throws
  // std::invalid_argument ("unknown metric: X") otherwise. Validation: a
  // sample rate must be finite and > 0, a threshold finite and >= 0, or
  // std::invalid_argument is thrown — a malformed value must not
  // silently arm a broken timer.
  void set_samples_per_second(std::string_view metric, double sps);
  void set_alert(std::string_view metric, double threshold,
                 std::optional<double> boosted_sps = std::nullopt);
  /// Timer/alert configuration of a live extractor.
  MetricConfig& extractor_config(std::string_view metric);
  const ControlPlaneConfig& config() const { return config_; }
  sim::Simulation& simulation() { return sim_; }
  /// The data plane this control plane drives; call sync_data_plane()
  /// before reading its registers.
  const telemetry::DataPlaneProgram& program() const { return program_; }

  // ---- Observability for experiments and tests ------------------------
  struct FlowState {
    telemetry::FlowIdentity flow;
    SimTime detected_at = 0;
    // Rolling values from the most recent extraction of each metric.
    double throughput_bps = 0.0;
    double loss_pct = 0.0;
    std::uint64_t loss_delta = 0;
    SimTime rtt_ns = 0;
    SimTime queue_delay_ns = 0;
    double queue_occupancy_pct = 0.0;
    telemetry::LimitVerdict verdict = telemetry::LimitVerdict::kUnknown;
    std::uint64_t flight_bytes = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t total_packets = 0;
    std::uint64_t total_losses = 0;
    // Extraction bookkeeping (per-metric deltas).
    std::uint64_t prev_bytes = 0;
    SimTime prev_bytes_at = 0;
    std::uint64_t prev_losses = 0;
    std::uint64_t prev_packets = 0;
    // Lifetime sample reservoirs (capped) feeding the terminated-flow
    // report's percentile summary.
    std::vector<double> rtt_samples_ms;
    std::vector<double> occupancy_samples_pct;
  };

  /// Reservoir cap: extraction samples beyond this are dropped (at 1 Hz
  /// that is over an hour of flow lifetime).
  static constexpr std::size_t kMaxLifetimeSamples = 4096;

  // ---- Extractor table ------------------------------------------------
  /// One extraction timer: name + value key + register reader, plus
  /// optional hooks. The four paper metrics (kPaperMetrics) are
  /// registered in the constructor; a fifth metric is one
  /// register_extractor() call.
  struct MetricExtractor {
    /// Report kind ("throughput", ...) and the alert's "metric" value.
    std::string name;
    /// JSON key carrying the value ("throughput_bps", ...).
    std::string value_key;
    /// Read the metric for a slot from the data plane, updating any
    /// rolling per-flow state. Called once per flow per tick.
    std::function<double(std::uint16_t slot, FlowState& state, SimTime now)>
        read;
    /// Switch-wide alternative to `read`: one value per tick, no per-flow
    /// loop (histogram quantiles, drop totals...). Exactly one of read /
    /// read_switch must be set.
    std::function<double(SimTime now)> read_switch;
    /// Optional with read_switch: enrich the emitted report document
    /// (extra quantiles, serialized histogram bins...).
    std::function<void(util::Json& doc, SimTime now)> annotate;
    /// Optional: emitted-after hook per flow (the limitation report
    /// piggybacks on the throughput extraction this way).
    std::function<void(std::uint16_t slot, FlowState& state, SimTime now)>
        per_flow;
    /// Optional: once per tick after all flows (aggregate statistics).
    std::function<void(SimTime now)> per_tick;
  };

  /// Register an additional extraction timer. If the control plane is
  /// already started the timer arms immediately. `config` is the
  /// default: an entry config().metrics already holds for this name
  /// wins over it.
  void register_extractor(MetricExtractor extractor,
                          MetricConfig config = {});

  /// Remove a registered extension extractor: its timer stops at the
  /// next tick, its closures are released immediately (they may capture
  /// objects whose lifetime ends here), the metric name becomes reusable
  /// and its config().metrics entry is erased, so a reinstalled program
  /// starts from its own default. The paper metrics are not removable;
  /// throws std::invalid_argument on them and on unknown names.
  void unregister_extractor(std::string_view metric);

  /// Whether a live (not unregistered) extractor with this metric name
  /// exists — paper or extension.
  bool has_extractor(std::string_view metric) const;

  /// Register an additional digest source, drained on every digest poll
  /// after the builtin digest queues; every returned document is
  /// emitted as a report (switch_id stamped like any other). The
  /// program VM's digests arrive this way.
  void register_digest_source(
      std::function<std::vector<util::Json>(SimTime now)> drain);

  /// Number of live extraction timers (the paper metrics + registered
  /// extensions, minus unregistered ones).
  std::size_t extractor_count() const {
    std::size_t live = 0;
    for (const auto& entry : extractors_) {
      if (!entry.removed) ++live;
    }
    return live;
  }

  struct Aggregates {
    SimTime at = 0;
    double link_utilization = 0.0;  // fraction of bottleneck capacity
    /// Jain's index over flow throughputs; nullopt while the link is
    /// idle (no tracked flows / all rates zero) — undefined, not 1.0.
    std::optional<double> fairness;
    std::size_t active_flows = 0;
    std::uint64_t total_bytes = 0;
    std::uint64_t total_packets = 0;
    double total_throughput_bps = 0.0;
  };

  struct FlowFinalReport {
    telemetry::FlowIdentity flow;
    SimTime start = 0;
    SimTime end = 0;
    std::uint64_t packets = 0;
    std::uint64_t bytes = 0;
    double avg_throughput_bps = 0.0;
    std::uint64_t retransmissions = 0;
    double retransmission_pct = 0.0;
    // Lifetime percentile summary over the extracted samples.
    double rtt_p50_ms = 0.0;
    double rtt_p95_ms = 0.0;
    double rtt_p99_ms = 0.0;
    double occupancy_p95_pct = 0.0;
  };

  struct Alert {
    std::string metric_name;
    telemetry::FlowIdentity flow;
    SimTime at = 0;
    double value = 0.0;
    double threshold = 0.0;
  };

  /// Current per-flow state (keyed by slot).
  const std::unordered_map<std::uint16_t, FlowState>& flows() const {
    return flows_;
  }
  const Aggregates& aggregates() const { return aggregates_; }
  const std::vector<FlowFinalReport>& final_reports() const {
    return final_reports_;
  }
  const std::vector<Alert>& alerts() const { return alerts_; }
  const std::vector<telemetry::MicroburstDigest>& microbursts() const {
    return microbursts_;
  }

  void set_on_alert(std::function<void(const Alert&)> cb) {
    on_alert_ = std::move(cb);
  }
  void set_on_blockage(
      std::function<void(const telemetry::BlockageDigest&)> cb) {
    on_blockage_ = std::move(cb);
  }
  void set_on_microburst(
      std::function<void(const telemetry::MicroburstDigest&)> cb) {
    on_microburst_ = std::move(cb);
  }

  std::uint64_t reports_emitted() const { return reports_emitted_; }

  /// Fabric hook: invoked immediately before every data-plane register
  /// read (extraction tick, digest poll, idle scan) and before every
  /// change to the switch's measurement programs. The fabric installs a
  /// barrier here — "this switch's pipeline shard has executed every
  /// mirror copy delivered before now" — so the driver sees exactly the
  /// data-plane state at the current time, whoever advances the shard.
  /// Unset = no-op (a control plane over a program it drives by hand).
  void set_driver_sync(std::function<void()> sync) {
    driver_sync_ = std::move(sync);
  }
  /// Run the driver sync: after this, data-plane state is the state at
  /// the current time and safe to read or change from this thread.
  void sync_data_plane() {
    if (driver_sync_) driver_sync_();
  }

 private:
  /// One row of the extractor table: the descriptor, its entry of
  /// config_.metrics (map nodes never move; null once unregistered) and
  /// its boost state.
  struct ExtractorEntry {
    MetricExtractor desc;
    MetricConfig* config = nullptr;
    bool boosted = false;
    /// Unregistered. The row is tombstoned, never erased: scheduled
    /// timer lambdas capture table indices, which must stay stable.
    bool removed = false;
  };

  void register_paper_metrics();
  ExtractorEntry& entry_of(std::string_view metric);
  void schedule_extractor(std::size_t index);
  void extract(std::size_t index);
  void poll_digests();
  void scan_idle_flows();
  void finalize_flow(std::uint16_t slot, SimTime end_ts);
  void emit(util::Json report);
  void check_alert(ExtractorEntry& entry,
                   const telemetry::FlowIdentity& flow, double value);
  SimTime current_interval(const ExtractorEntry& entry) const;
  double occupancy_pct(SimTime queue_delay) const;
  static void validate_sps(double sps);
  static void validate_threshold(double threshold);

  sim::Simulation& sim_;
  telemetry::DataPlaneProgram& program_;
  ControlPlaneConfig config_;
  ReportSink* sink_ = nullptr;
  bool started_ = false;

  std::unordered_map<std::uint16_t, FlowState> flows_;
  Aggregates aggregates_;
  std::vector<FlowFinalReport> final_reports_;
  std::vector<Alert> alerts_;
  std::vector<telemetry::MicroburstDigest> microbursts_;
  std::vector<ExtractorEntry> extractors_;
  std::vector<std::function<std::vector<util::Json>(SimTime)>>
      digest_sources_;

  std::function<void(const Alert&)> on_alert_;
  std::function<void(const telemetry::BlockageDigest&)> on_blockage_;
  std::function<void(const telemetry::MicroburstDigest&)> on_microburst_;
  std::function<void()> driver_sync_;
  std::uint64_t reports_emitted_ = 0;
};

}  // namespace p4s::cp
