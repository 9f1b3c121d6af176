#include "core/monitoring_system.hpp"

#include <stdexcept>

#include "psonar/store_backend.hpp"

namespace p4s::core {

namespace {

TapTarget resolve_tap(net::PaperTopology& topology, TapPoint tap) {
  switch (tap) {
    case TapPoint::kCoreBottleneck:
      return {*topology.core_switch, *topology.bottleneck_port,
              topology.config.bottleneck_bps};
    case TapPoint::kWanExt0:
      return {*topology.wan_switch, *topology.ext_dtn_links[0].forward,
              topology.config.access_bps};
    case TapPoint::kWanExt1:
      return {*topology.wan_switch, *topology.ext_dtn_links[1].forward,
              topology.config.access_bps};
    case TapPoint::kWanExt2:
      return {*topology.wan_switch, *topology.ext_dtn_links[2].forward,
              topology.config.access_bps};
  }
  throw std::invalid_argument("unknown tap point");
}

}  // namespace

MonitoringSystem::MonitoringSystem(MonitoringSystemConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      network_(sim_),
      topology_(net::make_paper_topology(network_, config_.topology)),
      // parallel <= 1 is the serial run: no worker thread.
      fabric_(sim_, {config_.parallel > 1 ? config_.parallel : 0,
                     config_.scheduling_jitter_seed}) {
  // Build the monitoring fabric: one MonitoredSwitch per configured
  // entry, defaulting to the paper's single untagged switch on the core
  // bottleneck. All instances share the one simulation and topology;
  // each site's mirror pipeline is one shard of the executor.
  std::vector<MonitoredSwitchConfig> switch_configs = config_.switches;
  if (switch_configs.empty()) switch_configs.push_back({});
  for (std::size_t i = 0; i < switch_configs.size(); ++i) {
    switches_.push_back(std::make_unique<MonitoredSwitch>(
        sim_, fabric_, resolve_tap(topology_, switch_configs[i].tap),
        switch_configs[i], config_.program, config_.control, config_.trace,
        config_.programs, config_.tap_latency, i));
  }

  psonar_ =
      std::make_unique<ps::PerfSonarNode>(sim_, *topology_.psonar_internal);
  if (config_.archive.durable) {
    // Durable archive: swap the archiver onto the segmented store before
    // any report can be indexed.
    if (config_.archive.dir.empty()) {
      throw std::invalid_argument(
          "archive.durable requires a store directory (archive.dir)");
    }
    store_ = std::make_unique<store::Store>(config_.archive.dir,
                                            config_.archive.store);
    psonar_->archiver().set_backend(
        std::make_unique<ps::StoreBackend>(*store_));
    if (config_.serving.enabled) {
      store_server_.emplace(std::make_unique<ps::StoreBackend>(*store_));
    }
  } else if (config_.serving.enabled) {
    throw std::invalid_argument(
        "serving.enabled requires a durable archive (archive.durable)");
  }
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    psonar_->psconfig().add_control_plane(switches_[i]->control_plane(),
                                          switches_[i]->id(),
                                          &switches_[i]->program_vm());
  }

  // One shared report transport: every control plane feeds the same sink
  // (reports are distinguished by their "switch_id" tag).
  cp::ReportSink* shared_sink = &psonar_->report_sink();
  if (config_.transport.resilient) {
    // Fault-injectable wire: control planes -> ResilientReportSink ->
    // ReportChannel -> Logstash TCP input; acks flow back per "@xmit_seq".
    channel_ =
        std::make_unique<net::ReportChannel>(sim_, config_.transport.channel);
    auto& logstash = psonar_->logstash();
    channel_->set_receiver(
        [&logstash](std::string_view chunk) { logstash.tcp_input(chunk); });
    channel_->on_disconnect([&logstash]() { logstash.tcp_reset(); });
    fault_injector_ = std::make_unique<net::FaultInjector>(sim_, *channel_);
    for (const auto& fault : config_.transport.faults) {
      fault_injector_->add(fault);
    }
    resilient_sink_ = std::make_unique<cp::ResilientReportSink>(
        sim_, *channel_, config_.transport.sink);
    logstash.set_transport_ack(
        [this](std::uint64_t seq) { resilient_sink_->on_ack(seq); });
    shared_sink = resilient_sink_.get();
  }
  for (auto& monitored : switches_) {
    monitored->control_plane().set_sink(shared_sink);
  }

  // Declarative workloads: built here (hosts exist), scheduled in
  // start(). Generators are deterministic — their schedules derive from
  // counters, never the simulation RNG — so enabling one perturbs no
  // other seeded output.
  for (const workload::WorkloadSpec& spec : config_.workloads) {
    workloads_.push_back(make_generator(
        sim_, host_by_name(spec.src), host_by_name(spec.dst), spec));
  }
}

void MonitoringSystem::run_until(SimTime t) {
  sim_.run_until(t);
  // Inclusive merge barrier: every shard executes its deliveries with
  // timestamp <= t and parks its clock at t. Deliveries still in flight
  // (mirrored within tap_latency of t) stay pending.
  fabric_.barrier_all(t);
}

MonitoringSystem::FabricStats MonitoringSystem::fabric_stats() {
  FabricStats stats;
  stats.at = sim_.now();
  // Merge barrier first: the watermark acquire inside makes every
  // worker-side counter write visible to this thread, so the reads below
  // are race-free and the totals are the same at every worker count.
  fabric_.barrier_all(sim_.now());
  stats.workers = fabric_.worker_count();
  stats.barrier_waits = fabric_.barrier_waits();
  stats.blocked_pushes = fabric_.blocked_pushes();
  for (auto& monitored : switches_) {
    FabricSiteStats site;
    site.id = monitored->id();
    site.mirrored = monitored->taps().mirrored_pkts();
    site.processed = monitored->p4_switch().processed_pkts();
    site.parse_errors = monitored->p4_switch().parse_errors();
    site.captured =
        monitored->capturing() ? monitored->trace_capture().captured_total()
                               : 0;
    site.reports_emitted = monitored->control_plane().reports_emitted();
    site.pending_digests = monitored->program().pending_digests();
    stats.mirrored += site.mirrored;
    stats.processed += site.processed;
    stats.parse_errors += site.parse_errors;
    stats.reports_emitted += site.reports_emitted;
    stats.sites.push_back(std::move(site));
  }
  return stats;
}

void MonitoringSystem::start() {
  fabric_.start();
  if (fault_injector_) fault_injector_->arm();
  for (auto& monitored : switches_) monitored->control_plane().start();
  for (auto& generator : workloads_) generator->start();
  if (store_ && config_.archive.maintenance_interval > 0) {
    // Background-style store maintenance on the simulation clock: commit
    // the WAL batch, seal big memtables, compact fragmented indices.
    const SimTime period = config_.archive.maintenance_interval;
    sim_.every(period, period, [this] {
      store_->maintain();
      return true;
    });
  }
}

tcp::TcpFlow& MonitoringSystem::add_transfer(
    int ext_index, tcp::TcpFlow::Config flow_config) {
  if (ext_index < 0 || ext_index > 2) {
    throw std::out_of_range("add_transfer: ext_index must be 0..2");
  }
  return add_flow(*topology_.dtn_internal,
                  *topology_.dtn_ext[static_cast<std::size_t>(ext_index)],
                  std::move(flow_config));
}

tcp::TcpFlow& MonitoringSystem::add_flow(net::Host& src, net::Host& dst,
                                         tcp::TcpFlow::Config flow_config) {
  flows_.push_back(
      std::make_unique<tcp::TcpFlow>(sim_, src, dst, std::move(flow_config)));
  return *flows_.back();
}

quic::QuicFlow& MonitoringSystem::add_quic_transfer(
    int ext_index, quic::QuicFlow::Config flow_config) {
  if (ext_index < 0 || ext_index > 2) {
    throw std::out_of_range("add_quic_transfer: ext_index must be 0..2");
  }
  return add_quic_flow(
      *topology_.dtn_internal,
      *topology_.dtn_ext[static_cast<std::size_t>(ext_index)],
      std::move(flow_config));
}

quic::QuicFlow& MonitoringSystem::add_quic_flow(
    net::Host& src, net::Host& dst, quic::QuicFlow::Config flow_config) {
  quic_flows_.push_back(std::make_unique<quic::QuicFlow>(
      sim_, src, dst, std::move(flow_config)));
  return *quic_flows_.back();
}

net::Host& MonitoringSystem::host_by_name(const std::string& name) {
  if (name == "dtn_int") return *topology_.dtn_internal;
  if (name == "psonar_int") return *topology_.psonar_internal;
  for (int i = 0; i < 3; ++i) {
    const std::string suffix = std::to_string(i);
    if (name == "ext" + suffix) {
      return *topology_.dtn_ext[static_cast<std::size_t>(i)];
    }
    if (name == "psonar_ext" + suffix) {
      return *topology_.psonar_ext[static_cast<std::size_t>(i)];
    }
  }
  throw std::invalid_argument("unknown topology host: " + name);
}

}  // namespace p4s::core
