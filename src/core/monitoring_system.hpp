// MonitoringSystem — the paper's complete deployment (Figures 3-5) in one
// object, and the library's main entry point:
//
//   * the Figure-8 topology (internal DTN + perfSONAR node, monitored
//     core switch, bottleneck link, WAN switch, three external networks),
//   * N MonitoredSwitch instances (TAP pair + P4 switch + data-plane
//     program + control plane each) sharing the one simulation — the
//     monitoring fabric; the default is the paper's single switch on the
//     core bottleneck,
//   * a perfSONAR node whose Logstash/archiver receive every control
//     plane's reports over one shared transport and whose pSConfig
//     (config-P4, optionally --switch <id>) configures them.
//
// Typical use (see examples/quickstart.cpp):
//
//   core::MonitoringSystem system({});
//   system.psonar().psconfig().execute(
//       "psconfig config-P4 --metric throughput --samples_per_second 1");
//   system.start();
//   auto& flow = system.add_transfer(0, {});     // DTN-int -> DTN-ext1
//   flow.start_at(units::seconds(1));
//   system.run_until(units::seconds(30));
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "controlplane/control_plane.hpp"
#include "controlplane/resilient_sink.hpp"
#include "core/fabric_executor.hpp"
#include "core/monitored_switch.hpp"
#include "net/fault_injector.hpp"
#include "net/report_channel.hpp"
#include "net/topology.hpp"
#include "p4/p4_switch.hpp"
#include "psonar/node.hpp"
#include "quic/flow.hpp"
#include "psonar/store_server.hpp"
#include "sim/simulation.hpp"
#include "store/store.hpp"
#include "tcp/flow.hpp"
#include "telemetry/dataplane_program.hpp"
#include "trace/trace_capture.hpp"
#include "workload/generators.hpp"

namespace p4s::core {

/// Configuration of the control-plane -> Logstash report transport.
/// Default is the legacy perfect wire (direct call into Logstash); with
/// `resilient` set, reports travel a fault-injectable net::ReportChannel
/// through a cp::ResilientReportSink, and `faults` (plus any scripted or
/// random faults added via MonitoringSystem::fault_injector() before
/// start()) are armed against it.
struct ReportTransportConfig {
  bool resilient = false;
  net::ReportChannel::Config channel;
  cp::ResilientReportSink::Config sink;
  std::vector<net::FaultInjector::ScheduledFault> faults;
};

// TraceCaptureConfig lives in core/monitored_switch.hpp (each monitored
// switch owns its capture tee); it is re-exported here unchanged.

/// Configuration of the archiver's storage backend (the config loader's
/// "archive" section). Default is the in-memory archive; with `durable`
/// set, documents persist to a store::Store at `dir` and a maintenance
/// tick on the simulation clock seals/compacts segments in the
/// background.
struct ArchiveConfig {
  bool durable = false;
  /// Store directory (required when durable).
  std::string dir;
  store::StoreConfig store;
  /// Period of the background seal/compact/rollup tick (0 = never; seal
  /// manually via archive_store()).
  SimTime maintenance_interval = units::seconds(1);
};

/// Configuration of the concurrent query-serving path over the durable
/// store (the config loader's "serving" section). Only meaningful with
/// archive.durable: the store's segment block cache is sized from
/// cache_bytes/cache_shards and a ps::StoreServer with reader_threads
/// workers fronts the store (store_server()).
struct ServingConfig {
  bool enabled = false;
  /// Segment block-cache capacity in bytes (0 = unbounded).
  std::size_t cache_bytes = 0;
  /// Lock shards for the block cache.
  std::size_t cache_shards = 8;
  /// Reader threads behind the async StoreServer API.
  std::size_t reader_threads = 4;
};

struct MonitoringSystemConfig {
  net::PaperTopologyConfig topology;
  telemetry::DataPlaneProgram::Config program;
  /// Control-plane config template applied to every monitored switch;
  /// core_buffer_bytes / bottleneck_bps are filled from each switch's
  /// tapped port when left 0.
  cp::ControlPlaneConfig control;
  ReportTransportConfig transport;
  TraceCaptureConfig trace;
  ArchiveConfig archive;
  ServingConfig serving;
  /// The monitored switches of the fabric. Empty = one untagged switch on
  /// the core bottleneck (the paper's deployment, and the legacy
  /// single-switch behavior).
  std::vector<MonitoredSwitchConfig> switches;
  /// Fabric-wide measurement programs (src/mpl), installed on every
  /// site's VM before the per-site MonitoredSwitchConfig.programs. The
  /// config loader fills this from the top-level "programs" section.
  std::vector<mpl::Program> programs;
  /// Worker threads of the fabric executor (the config loader's
  /// switches.parallel knob). Each monitored switch's mirror pipeline is
  /// one executor shard either way: 1 (or 0) = no worker thread, the
  /// main thread advances the shards (the serial run); >= 2 = that many
  /// workers advance them alongside the main timeline. Seeded outputs
  /// are byte-identical at every value.
  std::size_t parallel = 1;
  /// Test-only: randomized worker stalls (see ShardPool::Config) for the
  /// parallel determinism battery. 0 = off.
  std::uint64_t scheduling_jitter_seed = 0;
  /// Declarative traffic workloads (the config loader's "workloads"
  /// section): adversarial generators (SYN flood, port scan) and the
  /// benign elephant/mice mix, resolved against topology host names and
  /// started with the system.
  std::vector<workload::WorkloadSpec> workloads;
  SimTime tap_latency = kDefaultTapLatency;
  std::uint64_t seed = 1;
};

class MonitoringSystem {
 public:
  explicit MonitoringSystem(MonitoringSystemConfig config);
  MonitoringSystem() : MonitoringSystem(MonitoringSystemConfig{}) {}

  MonitoringSystem(const MonitoringSystem&) = delete;
  MonitoringSystem& operator=(const MonitoringSystem&) = delete;

  /// Start the control plane's extraction timers (call after any initial
  /// pSConfig commands so the first tick uses the configured rates).
  void start();

  /// Create a bulk transfer from the internal DTN to external DTN
  /// `ext_index` (0..2). The flow is owned by the system; schedule it
  /// with start_at()/stop_at().
  tcp::TcpFlow& add_transfer(int ext_index,
                             tcp::TcpFlow::Config flow_config = {});

  /// Create a transfer between arbitrary hosts of the topology.
  tcp::TcpFlow& add_flow(net::Host& src, net::Host& dst,
                         tcp::TcpFlow::Config flow_config = {});

  /// Create an encrypted QUIC transfer from the internal DTN to external
  /// DTN `ext_index` (0..2). Owned by the system; schedule with
  /// start_at()/stop_at().
  quic::QuicFlow& add_quic_transfer(int ext_index,
                                    quic::QuicFlow::Config flow_config = {});

  /// Create a QUIC transfer between arbitrary hosts of the topology.
  quic::QuicFlow& add_quic_flow(net::Host& src, net::Host& dst,
                                quic::QuicFlow::Config flow_config = {});

  /// Resolve a topology host by its config name: "dtn_int",
  /// "psonar_int", "ext0".."ext2", "psonar_ext0".."psonar_ext2". Throws
  /// std::invalid_argument on unknown names.
  net::Host& host_by_name(const std::string& name);

  /// Advance the run to `t`. This ends with an inclusive fabric barrier
  /// at `t`, after which every shard's clock sits at `t` and shard-owned
  /// state (P4 counters, captures) is readable from the calling thread.
  void run_until(SimTime t);

  sim::Simulation& simulation() { return sim_; }
  net::Network& network() { return network_; }
  net::PaperTopology& topology() { return topology_; }
  ps::PerfSonarNode& psonar() { return *psonar_; }
  const MonitoringSystemConfig& config() const { return config_; }

  // ---- The monitoring fabric ------------------------------------------
  std::size_t switch_count() const { return switches_.size(); }
  MonitoredSwitch& monitored_switch(std::size_t index) {
    return *switches_.at(index);
  }
  const std::vector<std::unique_ptr<MonitoredSwitch>>& monitored_switches()
      const {
    return switches_;
  }

  /// Whether worker threads advance the shards (config.parallel >= 2).
  bool parallel_fabric() const { return config_.parallel > 1; }
  /// The runtime delivering mirror copies to every site's pipeline.
  FabricExecutor& fabric_executor() { return fabric_; }

  /// Cross-switch counters, snapshotted at a merge barrier. With worker
  /// threads the per-site P4/capture counters are worker-owned and may
  /// be mid-flush at any instant; this is the ONLY race-free way to read
  /// them while the fabric runs — it barriers every shard to the current
  /// main time first, so the totals are the same at every worker count
  /// (no torn or partial values).
  struct FabricSiteStats {
    std::string id;              // config id ("" for the legacy switch)
    std::uint64_t mirrored = 0;  // copies the TAP pair took
    std::uint64_t processed = 0;       // frames the P4 parser accepted
    std::uint64_t parse_errors = 0;    // frames the parser rejected
    std::uint64_t captured = 0;        // pcap records (0 when not capturing)
    std::uint64_t reports_emitted = 0;  // control-plane documents
    std::uint64_t pending_digests = 0;  // queued, not yet polled
  };
  struct FabricStats {
    SimTime at = 0;  // barrier time of the snapshot
    std::vector<FabricSiteStats> sites;
    std::uint64_t mirrored = 0;  // sums over sites
    std::uint64_t processed = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t reports_emitted = 0;
    // Executor telemetry: worker threads (0 in the serial run), barriers
    // that had to block, and pushes that found an inbox full.
    std::size_t workers = 0;
    std::uint64_t barrier_waits = 0;
    std::uint64_t blocked_pushes = 0;
  };
  FabricStats fabric_stats();

  // Single-switch accessors (the N=1 legacy API): delegate to switch 0,
  // which always exists.
  p4::P4Switch& p4_switch() { return switches_[0]->p4_switch(); }
  net::OpticalTapPair& taps() { return switches_[0]->taps(); }
  telemetry::DataPlaneProgram& program() { return switches_[0]->program(); }
  cp::ControlPlane& control_plane() {
    return switches_[0]->control_plane();
  }

  /// Whether the resilient report transport is active.
  bool resilient_transport() const { return channel_ != nullptr; }
  /// The simulated report wire (only with transport.resilient).
  net::ReportChannel& report_channel() { return *channel_; }
  /// Fault scheduler for the report wire (only with transport.resilient).
  /// Add scripted/random faults before start(); start() arms it.
  net::FaultInjector& fault_injector() { return *fault_injector_; }
  /// The hardened sink (only with transport.resilient).
  cp::ResilientReportSink& report_sink() { return *resilient_sink_; }

  /// Whether the archiver persists to the durable store.
  bool durable_archive() const { return store_ != nullptr; }
  /// The durable store behind the archiver (only with archive.durable).
  /// Seal/flush through it at end of run to make the tail durable.
  store::Store& archive_store() { return *store_; }

  /// Whether the concurrent serving path is active (serving.enabled on a
  /// durable archive).
  bool serving() const { return store_server_ != nullptr; }
  /// The thread-safe query server over the durable store (only with
  /// serving.enabled).
  ps::StoreServer& store_server() { return *store_server_; }

  /// Whether pcap capture of the mirror streams is active (switch 0).
  bool capturing() const { return switches_[0]->capturing(); }
  /// The capture tee (only with trace.capture; switch 0's tee).
  trace::TraceCapture& trace_capture() {
    return switches_[0]->trace_capture();
  }

  const std::vector<std::unique_ptr<tcp::TcpFlow>>& flows() const {
    return flows_;
  }
  /// Generators built from config.workloads, in config order; start()
  /// schedules them.
  const std::vector<std::unique_ptr<workload::TrafficGenerator>>& workloads()
      const {
    return workloads_;
  }

 private:
  MonitoringSystemConfig config_;
  sim::Simulation sim_;
  net::Network network_;
  net::PaperTopology topology_;
  std::vector<std::unique_ptr<MonitoredSwitch>> switches_;
  std::unique_ptr<store::Store> store_;  // before psonar_: archiver backend
  std::unique_ptr<ps::StoreServer> store_server_;
  std::unique_ptr<ps::PerfSonarNode> psonar_;
  std::unique_ptr<net::ReportChannel> channel_;
  std::unique_ptr<net::FaultInjector> fault_injector_;
  std::unique_ptr<cp::ResilientReportSink> resilient_sink_;
  std::vector<std::unique_ptr<tcp::TcpFlow>> flows_;
  std::vector<std::unique_ptr<quic::QuicFlow>> quic_flows_;
  std::vector<std::unique_ptr<workload::TrafficGenerator>> workloads_;
  // Declared last: built before the switches register their shards in
  // the constructor body, and destroyed first, stopping the workers
  // while every shard's clock and sinks are still alive.
  FabricExecutor fabric_;
};

}  // namespace p4s::core
