#include "controlplane/control_plane.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace p4s::cp {

ControlPlane::ControlPlane(sim::Simulation& sim,
                           telemetry::DataPlaneProgram& program,
                           ControlPlaneConfig config)
    : sim_(sim), program_(program), config_(std::move(config)) {
  register_paper_metrics();
}

// The four paper metrics (§3.2) expressed as extractor-table rows. Each
// reader reproduces the original t_N/t_P/t_R/t_Q body exactly; the
// generic extract() loop supplies the shared report/alert/boost logic
// those four timers used to duplicate.
void ControlPlane::register_paper_metrics() {
  MetricExtractor throughput;
  throughput.name = kPaperMetrics[0];
  throughput.value_key = "throughput_bps";
  throughput.read = [this](std::uint16_t slot, FlowState& state,
                           SimTime now) {
    const std::uint64_t bytes = program_.bytes(slot);
    state.total_bytes = bytes;
    state.total_packets = program_.packets(slot);
    const SimTime prev_at =
        state.prev_bytes_at ? state.prev_bytes_at : state.detected_at;
    const double dt = units::to_seconds(now - prev_at);
    if (dt > 0.0) {
      state.throughput_bps =
          static_cast<double>(bytes - state.prev_bytes) * 8.0 / dt;
    }
    state.prev_bytes = bytes;
    state.prev_bytes_at = now;
    return state.throughput_bps;
  };
  // Limitation verdict piggybacks on the throughput extraction.
  throughput.per_flow = [this](std::uint16_t slot, FlowState& state,
                               SimTime now) {
    state.verdict = program_.limit_classifier().verdict(slot);
    state.flight_bytes = program_.limit_classifier().flight_bytes(slot);
    emit(make_limitation_report(state.flow, now, state.verdict,
                                state.flight_bytes));
  };
  // Aggregate traffic statistics (§5.3) on every throughput tick.
  throughput.per_tick = [this](SimTime now) {
    Aggregates agg;
    agg.at = now;
    std::vector<double> rates;
    rates.reserve(flows_.size());
    for (const auto& [slot, state] : flows_) {
      (void)slot;
      agg.total_bytes += state.total_bytes;
      agg.total_packets += state.total_packets;
      agg.total_throughput_bps += state.throughput_bps;
      rates.push_back(state.throughput_bps);
    }
    agg.active_flows = flows_.size();
    agg.fairness = util::jain_fairness(rates);
    if (config_.bottleneck_bps > 0) {
      agg.link_utilization = agg.total_throughput_bps /
                             static_cast<double>(config_.bottleneck_bps);
    }
    aggregates_ = agg;
    emit(make_aggregate_report(now, agg.link_utilization, agg.fairness,
                               agg.active_flows, agg.total_bytes,
                               agg.total_packets,
                               agg.total_throughput_bps));
  };

  MetricExtractor loss;
  loss.name = kPaperMetrics[1];
  loss.value_key = "loss_pct";
  loss.read = [this](std::uint16_t slot, FlowState& state, SimTime) {
    const std::uint64_t losses = program_.rtt_loss().losses(slot);
    const std::uint64_t packets = program_.packets(slot);
    state.total_losses = losses;
    const std::uint64_t dl = losses - state.prev_losses;
    const std::uint64_t dp = packets - state.prev_packets;
    state.loss_delta = dl;
    state.loss_pct =
        dp > 0
            ? 100.0 * static_cast<double>(dl) / static_cast<double>(dp)
            : 0.0;
    state.prev_losses = losses;
    state.prev_packets = packets;
    return state.loss_pct;
  };

  MetricExtractor rtt;
  rtt.name = kPaperMetrics[2];
  rtt.value_key = "rtt_ms";
  rtt.read = [this](std::uint16_t slot, FlowState& state, SimTime) {
    state.rtt_ns = program_.rtt_loss().last_rtt(slot);
    const double rtt_ms = units::to_milliseconds(state.rtt_ns);
    if (state.rtt_ns > 0 &&
        state.rtt_samples_ms.size() < kMaxLifetimeSamples) {
      state.rtt_samples_ms.push_back(rtt_ms);
    }
    return rtt_ms;
  };

  MetricExtractor occupancy;
  occupancy.name = kPaperMetrics[3];
  occupancy.value_key = "occupancy_pct";
  occupancy.read = [this](std::uint16_t slot, FlowState& state, SimTime) {
    state.queue_delay_ns = program_.queue_monitor().last_queue_delay(slot);
    state.queue_occupancy_pct = occupancy_pct(state.queue_delay_ns);
    if (state.occupancy_samples_pct.size() < kMaxLifetimeSamples) {
      state.occupancy_samples_pct.push_back(state.queue_occupancy_pct);
    }
    return state.queue_occupancy_pct;
  };

  for (MetricExtractor* ex : {&throughput, &loss, &rtt, &occupancy}) {
    register_extractor(std::move(*ex));
  }
}

void ControlPlane::register_extractor(MetricExtractor extractor,
                                      MetricConfig config) {
  if (extractor.name.empty() ||
      static_cast<bool>(extractor.read) ==
          static_cast<bool>(extractor.read_switch)) {
    throw std::invalid_argument(
        "extractor needs a name and exactly one of read / read_switch");
  }
  if (has_extractor(extractor.name)) {
    throw std::invalid_argument("duplicate extractor: " + extractor.name);
  }
  ExtractorEntry entry;
  entry.config = &config_.metrics.try_emplace(extractor.name, config)
                      .first->second;
  entry.desc = std::move(extractor);
  extractors_.push_back(std::move(entry));
  if (started_) schedule_extractor(extractors_.size() - 1);
}

void ControlPlane::unregister_extractor(std::string_view metric) {
  ExtractorEntry& entry = entry_of(metric);
  if (std::find(kPaperMetrics.begin(), kPaperMetrics.end(), metric) !=
      kPaperMetrics.end()) {
    throw std::invalid_argument("cannot unregister builtin metric: " +
                                std::string(metric));
  }
  entry.removed = true;
  config_.metrics.erase(config_.metrics.find(metric));
  entry.config = nullptr;
  // Release the closures now: they may capture objects (a VM's
  // installed program) whose lifetime ends with this call. The armed
  // timer checks `removed` before touching desc and dies quietly.
  entry.desc = {};
}

bool ControlPlane::has_extractor(std::string_view metric) const {
  for (const auto& entry : extractors_) {
    if (!entry.removed && entry.desc.name == metric) return true;
  }
  return false;
}

void ControlPlane::register_digest_source(
    std::function<std::vector<util::Json>(SimTime)> drain) {
  digest_sources_.push_back(std::move(drain));
}

void ControlPlane::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < extractors_.size(); ++i) {
    schedule_extractor(i);
  }
  sim_.every(sim_.now() + config_.digest_poll_interval,
             config_.digest_poll_interval, [this]() {
               poll_digests();
               scan_idle_flows();
               return true;
             });
}

void ControlPlane::validate_sps(double sps) {
  if (!std::isfinite(sps) || sps <= 0.0) {
    throw std::invalid_argument(
        "samples_per_second must be a finite value > 0");
  }
}

void ControlPlane::validate_threshold(double threshold) {
  if (!std::isfinite(threshold) || threshold < 0.0) {
    throw std::invalid_argument(
        "alert threshold must be a finite value >= 0");
  }
}

ControlPlane::ExtractorEntry& ControlPlane::entry_of(
    std::string_view metric) {
  for (auto& entry : extractors_) {
    if (!entry.removed && entry.desc.name == metric) return entry;
  }
  throw std::invalid_argument("unknown metric: " + std::string(metric));
}

void ControlPlane::set_samples_per_second(std::string_view metric,
                                          double sps) {
  validate_sps(sps);
  extractor_config(metric).interval = units::seconds_f(1.0 / sps);
}

void ControlPlane::set_alert(std::string_view metric, double threshold,
                             std::optional<double> boosted_sps) {
  validate_threshold(threshold);
  if (boosted_sps.has_value()) validate_sps(*boosted_sps);
  MetricConfig& mc = extractor_config(metric);
  mc.alert_enabled = true;
  mc.alert_threshold = threshold;
  if (boosted_sps.has_value()) {
    mc.boosted_interval = units::seconds_f(1.0 / *boosted_sps);
  }
}

MetricConfig& ControlPlane::extractor_config(std::string_view metric) {
  return *entry_of(metric).config;
}

SimTime ControlPlane::current_interval(const ExtractorEntry& entry) const {
  const MetricConfig& mc = *entry.config;
  const SimTime interval =
      entry.boosted ? mc.boosted_interval : mc.interval;
  return std::max<SimTime>(interval, units::microseconds(100));
}

void ControlPlane::schedule_extractor(std::size_t index) {
  // An extractor unregistered before start() keeps its row but no config.
  if (extractors_[index].removed) return;
  sim_.after(current_interval(extractors_[index]), [this, index]() {
    if (extractors_[index].removed) return;  // unregistered: timer dies
    extract(index);
    schedule_extractor(index);  // re-arm with the (possibly boosted) interval
  });
}

double ControlPlane::occupancy_pct(SimTime queue_delay) const {
  if (config_.core_buffer_bytes == 0 || config_.bottleneck_bps == 0) {
    return 0.0;
  }
  const double drain_ns = static_cast<double>(config_.core_buffer_bytes) *
                          8.0 * 1e9 /
                          static_cast<double>(config_.bottleneck_bps);
  return 100.0 * static_cast<double>(queue_delay) / drain_ns;
}

// The one extraction body all timers share: read each flow's value, emit
// the metric report, run the alert/boost logic, then the entry's hooks.
void ControlPlane::extract(std::size_t index) {
  if (driver_sync_) driver_sync_();
  ExtractorEntry& entry = extractors_[index];
  const SimTime now = sim_.now();
  double worst = 0.0;  // per-tick max, drives the boost hysteresis

  if (entry.desc.read_switch) {
    // Switch-wide extractor: one value for the whole link, no per-flow
    // loop. Alerts carry an empty flow identity.
    const double value = entry.desc.read_switch(now);
    util::Json doc = make_switch_metric_report(
        entry.desc.name.c_str(), now, value, entry.desc.value_key.c_str());
    if (entry.desc.annotate) entry.desc.annotate(doc, now);
    emit(std::move(doc));
    check_alert(entry, telemetry::FlowIdentity{}, value);
    worst = value;
  } else {
    for (auto& [slot, state] : flows_) {
      const double value = entry.desc.read(slot, state, now);
      emit(make_metric_report(entry.desc.name.c_str(), state.flow, now,
                              value, entry.desc.value_key.c_str()));
      check_alert(entry, state.flow, value);
      worst = std::max(worst, value);
      if (entry.desc.per_flow) entry.desc.per_flow(slot, state, now);
    }
  }

  // Boost hysteresis: drop back to the normal rate once the worst value
  // across flows is below the threshold again.
  const MetricConfig& mc = *entry.config;
  if (entry.boosted && (!mc.alert_enabled || worst < mc.alert_threshold)) {
    entry.boosted = false;
  }

  if (entry.desc.per_tick) entry.desc.per_tick(now);
}

void ControlPlane::check_alert(ExtractorEntry& entry,
                               const telemetry::FlowIdentity& flow,
                               double value) {
  const MetricConfig& mc = *entry.config;
  if (!mc.alert_enabled || value < mc.alert_threshold) return;
  const SimTime now = sim_.now();
  Alert alert;
  alert.metric_name = entry.desc.name;
  alert.flow = flow;
  alert.at = now;
  alert.value = value;
  alert.threshold = mc.alert_threshold;
  alerts_.push_back(alert);
  emit(make_alert_report(entry.desc.name.c_str(), flow, now, value,
                         mc.alert_threshold));
  if (on_alert_) on_alert_(alert);
  // §3.2: exceeding the threshold increases the collection rate.
  entry.boosted = true;
}

void ControlPlane::poll_digests() {
  if (driver_sync_) driver_sync_();
  for (const auto& d : program_.tracker().new_flow_digests().drain()) {
    FlowState state;
    state.flow = d.flow;
    state.detected_at = d.detected_at;
    flows_[d.slot] = state;
    emit(make_flow_detected_report(d.flow, d.detected_at));
  }
  for (const auto& d : program_.fin_digests().drain()) {
    if (flows_.count(d.slot) > 0) finalize_flow(d.slot, d.at);
  }
  // Cuckoo flow-table evictions finalize exactly like a FIN: the slot's
  // registers still hold the flow's last values. (Always empty in
  // register mode.)
  for (const auto& d : program_.tracker().evict_digests().drain()) {
    if (flows_.count(d.slot) > 0) finalize_flow(d.slot, d.at);
  }
  for (const auto& d : program_.queue_monitor().microburst_digests().drain()) {
    microbursts_.push_back(d);
    emit(make_microburst_report(d));
    if (on_microburst_) on_microburst_(d);
  }
  for (const auto& d : program_.int_exporter().postcards().drain()) {
    util::Json j = util::Json::object();
    j["report"] = "int_postcard";
    j["ts_ns"] = static_cast<std::int64_t>(d.egress_ts);
    j["flow_id"] = static_cast<std::int64_t>(d.flow_id);
    j["queue_delay_ns"] = static_cast<std::int64_t>(d.queue_delay_ns);
    j["seq"] = static_cast<std::int64_t>(d.seq);
    emit(j);
  }
  for (const auto& d : program_.iat_monitor().blockage_digests().drain()) {
    auto it = flows_.find(d.slot);
    if (it != flows_.end()) {
      emit(make_blockage_report(d, it->second.flow));
    }
    if (on_blockage_) on_blockage_(d);
  }
  for (auto& source : digest_sources_) {
    std::vector<util::Json> docs = source(sim_.now());
    for (util::Json& doc : docs) emit(std::move(doc));
  }
}

void ControlPlane::scan_idle_flows() {
  if (driver_sync_) driver_sync_();
  const SimTime now = sim_.now();
  std::vector<std::uint16_t> expired;
  for (const auto& [slot, state] : flows_) {
    (void)state;
    const SimTime last = program_.last_seen(slot);
    if (last != 0 && now > last && now - last >= config_.flow_idle_timeout) {
      expired.push_back(slot);
    }
  }
  for (std::uint16_t slot : expired) finalize_flow(slot, now);
}

void ControlPlane::finalize_flow(std::uint16_t slot, SimTime end_ts) {
  auto it = flows_.find(slot);
  if (it == flows_.end()) return;

  FlowFinalReport report;
  report.flow = it->second.flow;
  report.start = program_.first_seen(slot);
  const SimTime last = program_.last_seen(slot);
  report.end = last != 0 ? last : end_ts;
  report.packets = program_.packets(slot);
  report.bytes = program_.bytes(slot);
  report.retransmissions = program_.rtt_loss().losses(slot);
  if (report.end > report.start) {
    report.avg_throughput_bps =
        static_cast<double>(report.bytes) * 8.0 /
        units::to_seconds(report.end - report.start);
  }
  if (report.packets > 0) {
    report.retransmission_pct = 100.0 *
                                static_cast<double>(report.retransmissions) /
                                static_cast<double>(report.packets);
  }
  report.rtt_p50_ms = util::percentile(it->second.rtt_samples_ms, 0.50);
  report.rtt_p95_ms = util::percentile(it->second.rtt_samples_ms, 0.95);
  report.rtt_p99_ms = util::percentile(it->second.rtt_samples_ms, 0.99);
  report.occupancy_p95_pct =
      util::percentile(it->second.occupancy_samples_pct, 0.95);
  final_reports_.push_back(report);
  util::Json final_doc = make_flow_final_report(
      report.flow, report.start, report.end, report.packets, report.bytes,
      report.avg_throughput_bps, report.retransmissions,
      report.retransmission_pct);
  final_doc["rtt_p50_ms"] = report.rtt_p50_ms;
  final_doc["rtt_p95_ms"] = report.rtt_p95_ms;
  final_doc["rtt_p99_ms"] = report.rtt_p99_ms;
  final_doc["occupancy_p95_pct"] = report.occupancy_p95_pct;
  emit(final_doc);
  program_.release_slot(slot);
  flows_.erase(it);
}

void ControlPlane::emit(util::Json report) {
  if (!config_.switch_id.empty()) report["switch_id"] = config_.switch_id;
  ++reports_emitted_;
  if (sink_ != nullptr) sink_->on_report(report);
}

}  // namespace p4s::cp
