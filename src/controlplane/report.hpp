// Report_v1: the structured measurement records the switch control plane
// produces from raw register values (Figure 7). These are JSON documents
// shipped to perfSONAR's Logstash over the TCP input plugin; Logstash
// adds archive metadata to make Report_v2 and stores it in OpenSearch.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "telemetry/types.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace p4s::cp {

/// The paper's four run-time-configurable metrics in §3.2 order (t_N,
/// t_P, t_R, t_Q and thresholds a_N..a_Q). The control plane registers
/// them first; config-P4 without --metric applies to these.
inline constexpr std::array<std::string_view, 4> kPaperMetrics = {
    "throughput", "packet_loss", "rtt", "queue_occupancy"};

/// Consumer of Report_v1 documents (Logstash's TCP input plugin in the
/// integrated system; experiment collectors in benches and tests).
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void on_report(const util::Json& report) = 0;
};

/// JSON object describing a flow (embedded in every per-flow report).
util::Json flow_json(const telemetry::FlowIdentity& flow);

// Report_v1 builders. Every document carries "report" (the record kind)
// and "ts_ns" (switch nanosecond timestamp).
util::Json make_metric_report(const char* metric,
                              const telemetry::FlowIdentity& flow,
                              SimTime ts, double value,
                              const char* value_key);
/// Switch-wide metric report: one value for the whole monitored link, no
/// "flow" object (histogram quantiles and other link-level summaries).
util::Json make_switch_metric_report(const char* metric, SimTime ts,
                                     double value, const char* value_key);
util::Json make_flow_detected_report(const telemetry::FlowIdentity& flow,
                                     SimTime ts);
util::Json make_flow_final_report(const telemetry::FlowIdentity& flow,
                                  SimTime start, SimTime end,
                                  std::uint64_t packets, std::uint64_t bytes,
                                  double avg_throughput_bps,
                                  std::uint64_t retransmissions,
                                  double retransmission_pct);
util::Json make_microburst_report(const telemetry::MicroburstDigest& d);
util::Json make_blockage_report(const telemetry::BlockageDigest& d,
                                const telemetry::FlowIdentity& flow);
util::Json make_limitation_report(const telemetry::FlowIdentity& flow,
                                  SimTime ts, telemetry::LimitVerdict v,
                                  std::uint64_t flight_bytes);
util::Json make_aggregate_report(SimTime ts, double link_utilization,
                                 std::optional<double> fairness,
                                 std::size_t active_flows,
                                 std::uint64_t total_bytes,
                                 std::uint64_t total_packets,
                                 double total_throughput_bps);
util::Json make_alert_report(const char* metric,
                             const telemetry::FlowIdentity& flow, SimTime ts,
                             double value, double threshold);

}  // namespace p4s::cp
