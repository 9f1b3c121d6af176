#include "controlplane/report.hpp"

namespace p4s::cp {

util::Json flow_json(const telemetry::FlowIdentity& flow) {
  util::Json j = util::Json::object();
  j["id"] = static_cast<std::int64_t>(flow.flow_id);
  j["rev_id"] = static_cast<std::int64_t>(flow.rev_flow_id);
  j["src_ip"] = net::to_string(flow.tuple.src_ip);
  j["dst_ip"] = net::to_string(flow.tuple.dst_ip);
  j["src_port"] = static_cast<std::int64_t>(flow.tuple.src_port);
  j["dst_port"] = static_cast<std::int64_t>(flow.tuple.dst_port);
  j["protocol"] = static_cast<std::int64_t>(flow.tuple.protocol);
  return j;
}

namespace {
util::Json base(const char* report, SimTime ts) {
  util::Json j = util::Json::object();
  j["report"] = report;
  j["ts_ns"] = static_cast<std::int64_t>(ts);
  return j;
}
}  // namespace

util::Json make_metric_report(const char* metric,
                              const telemetry::FlowIdentity& flow,
                              SimTime ts, double value,
                              const char* value_key) {
  util::Json j = base(metric, ts);
  j["flow"] = flow_json(flow);
  j[value_key] = value;
  return j;
}

util::Json make_switch_metric_report(const char* metric, SimTime ts,
                                     double value, const char* value_key) {
  util::Json j = base(metric, ts);
  j[value_key] = value;
  return j;
}

util::Json make_flow_detected_report(const telemetry::FlowIdentity& flow,
                                     SimTime ts) {
  util::Json j = base("flow_detected", ts);
  j["flow"] = flow_json(flow);
  return j;
}

util::Json make_flow_final_report(const telemetry::FlowIdentity& flow,
                                  SimTime start, SimTime end,
                                  std::uint64_t packets, std::uint64_t bytes,
                                  double avg_throughput_bps,
                                  std::uint64_t retransmissions,
                                  double retransmission_pct) {
  util::Json j = base("flow_final", end);
  j["flow"] = flow_json(flow);
  j["start_ns"] = static_cast<std::int64_t>(start);
  j["end_ns"] = static_cast<std::int64_t>(end);
  j["packets"] = static_cast<std::int64_t>(packets);
  j["bytes"] = static_cast<std::int64_t>(bytes);
  j["avg_throughput_bps"] = avg_throughput_bps;
  j["retransmissions"] = static_cast<std::int64_t>(retransmissions);
  j["retransmission_pct"] = retransmission_pct;
  return j;
}

util::Json make_microburst_report(const telemetry::MicroburstDigest& d) {
  util::Json j = base("microburst", d.start_ns);
  j["start_ns"] = static_cast<std::int64_t>(d.start_ns);
  j["duration_ns"] = static_cast<std::int64_t>(d.duration_ns);
  j["peak_queue_delay_ns"] =
      static_cast<std::int64_t>(d.peak_queue_delay_ns);
  j["packets_in_burst"] = static_cast<std::int64_t>(d.packets_in_burst);
  return j;
}

util::Json make_blockage_report(const telemetry::BlockageDigest& d,
                                const telemetry::FlowIdentity& flow) {
  util::Json j = base("blockage", d.at);
  j["flow"] = flow_json(flow);
  j["iat_ns"] = static_cast<std::int64_t>(d.iat_ns);
  j["baseline_iat_ns"] = static_cast<std::int64_t>(d.baseline_iat_ns);
  return j;
}

util::Json make_limitation_report(const telemetry::FlowIdentity& flow,
                                  SimTime ts, telemetry::LimitVerdict v,
                                  std::uint64_t flight_bytes) {
  util::Json j = base("limitation", ts);
  j["flow"] = flow_json(flow);
  j["verdict"] = telemetry::to_string(v);
  j["flight_bytes"] = static_cast<std::int64_t>(flight_bytes);
  return j;
}

util::Json make_aggregate_report(SimTime ts, double link_utilization,
                                 std::optional<double> fairness,
                                 std::size_t active_flows,
                                 std::uint64_t total_bytes,
                                 std::uint64_t total_packets,
                                 double total_throughput_bps) {
  util::Json j = base("aggregate", ts);
  j["link_utilization"] = link_utilization;
  // JSON null while the link is idle: the index is undefined, and a
  // dashboard must not plot it as perfect fairness.
  j["fairness"] = fairness.has_value() ? util::Json(*fairness)
                                       : util::Json(nullptr);
  j["active_flows"] = static_cast<std::int64_t>(active_flows);
  j["total_bytes"] = static_cast<std::int64_t>(total_bytes);
  j["total_packets"] = static_cast<std::int64_t>(total_packets);
  j["total_throughput_bps"] = total_throughput_bps;
  return j;
}

util::Json make_alert_report(const char* metric,
                             const telemetry::FlowIdentity& flow, SimTime ts,
                             double value, double threshold) {
  util::Json j = base("alert", ts);
  j["metric"] = metric;
  j["flow"] = flow_json(flow);
  j["value"] = value;
  j["threshold"] = threshold;
  return j;
}

}  // namespace p4s::cp
