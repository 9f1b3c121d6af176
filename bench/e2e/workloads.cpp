#include "workloads.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/random.hpp"
#include "util/json.hpp"

namespace p4s::e2e {

namespace {

using util::Json;

const std::vector<Workload> kWorkloads = {
    {"fig9",
     "the paper's 5.2 run: per-copy path (sim/tcp/net/p4/telemetry) does "
     "the work, the archive sees under a thousand reports",
     60.0, 6.0, 100.0, 1.0},
    {"fabric16",
     "16 monitored sites on 3 workers: the only workload that runs the "
     "parallel fabric executor, shard pool and boundary queues",
     16.0, 3.0, 100.0, 1.0},
    {"mice_archive",
     "thousands of short flows: transport, Logstash, durable store and "
     "serving do most of the work, with reads and writes on one store",
     30.0, 3.0, 80.0, 2.0},
    {"engines_quic",
     "TCP and QUIC transfers with every optional engine and the shipped "
     "mpl programs: the same telemetry layer doing more work per copy",
     60.0, 6.0, 100.0, 1.0},
};

/// The seed's only effect on traffic: one offset in [0, 100) ms that
/// shifts every transfer of the workload together. The traffic's own
/// dynamics stay the same; what the monitor sees changes phase against
/// its report, dashboard and maintenance timers. (Independent per-flow
/// offsets change TCP's loss episodes, and with them the copy count, by
/// up to 12% between seeds.)
SimTime seed_offset(std::uint64_t seed) {
  sim::Rng rng(seed);
  return static_cast<SimTime>(rng.next_double() * 100e6);
}

Json elephant_mice(const char* src, std::size_t elephants, double start_s,
                   double duration_s) {
  Json spec = Json::object();
  spec["kind"] = "elephant_mice";
  spec["src"] = src;
  spec["dst"] = "dtn_int";
  spec["elephants"] = static_cast<std::int64_t>(elephants);
  spec["mice_per_second"] = 100;
  spec["mice_kb"] = 64;
  spec["start_s"] = start_s;
  spec["duration_s"] = duration_s;
  return spec;
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string config_text(const Workload& w, const ScenarioOptions& options) {
  const std::string name = w.name;
  Json doc = Json::object();
  doc["seed"] = static_cast<std::int64_t>(options.seed);
  Json topology = Json::object();
  if (name != "fabric16") {
    // 250 Mbps bottleneck, buffer = one BDP at 50 ms (bench/fig9).
    topology["bottleneck_mbps"] = 250;
    topology["core_buffer_bdp_of_rtt_ms"] = 50;
  } else {
    topology["bottleneck_mbps"] = 200;
    topology["access_mbps"] = 200;
  }
  doc["topology"] = topology;

  if (name == "fabric16") {
    static constexpr const char* kTaps[] = {"core", "wan_ext0", "wan_ext1",
                                            "wan_ext2"};
    Json sites = Json::array();
    for (int i = 0; i < 16; ++i) {
      Json site = Json::object();
      site["id"] = "site-" + std::to_string(i);
      site["tap"] = kTaps[i % 4];
      sites.as_array().push_back(site);
    }
    Json switches = Json::object();
    switches["parallel"] =
        static_cast<std::int64_t>(options.parallel != 0 ? options.parallel : 3);
    switches["sites"] = sites;
    doc["switches"] = switches;
  } else if (name == "mice_archive") {
    const double start_s =
        1.0 + static_cast<double>(seed_offset(options.seed)) / 1e9;
    Json control = Json::object();
    control["flow_idle_timeout_s"] = 1;
    doc["control"] = control;
    Json transport = Json::object();
    transport["resilient"] = true;
    doc["transport"] = transport;
    Json archive = Json::object();
    archive["backend"] = "store";
    archive["dir"] = options.store_dir;
    archive["maintenance_interval_s"] = 0;
    doc["archive"] = archive;
    Json serving = Json::object();
    serving["enabled"] = true;
    serving["reader_threads"] = 0;
    doc["serving"] = serving;
    Json generators = Json::array();
    generators.as_array().push_back(
        elephant_mice("ext0", 2, start_s, options.horizon_s - 1.0));
    generators.as_array().push_back(
        elephant_mice("ext1", 1, start_s, options.horizon_s - 1.0));
    doc["workloads"] = generators;
  } else if (name == "engines_quic") {
    Json telemetry = Json::object();
    Json histograms = Json::array();
    for (const char* metric : {"rtt", "iat", "queue_delay"}) {
      Json h = Json::object();
      h["metric"] = metric;
      histograms.as_array().push_back(h);
    }
    telemetry["histograms"] = histograms;
    telemetry["spin_rtt"] = Json::object();
    telemetry["nids"] = Json::object();
    doc["telemetry"] = telemetry;
    doc["programs"] = shipped_programs();
  }
  return doc.dump();
}

Json shipped_programs() {
  Json programs = Json::array();
  for (const char* file : {"byte_counter.mpl.json", "queue_delay_p99.mpl.json",
                           "spin_rtt.mpl.json"}) {
    const std::string path =
        std::string(P4S_EXAMPLES_DIR) + "/programs/" + file;
    std::ifstream in(path);
    if (!in) throw std::runtime_error("e2e: cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    programs.as_array().push_back(Json::parse(text.str()));
  }
  return programs;
}

void configure_reporting(const Workload& w, core::MonitoringSystem& system) {
  const bool paper_rate = std::string_view(w.name) == "fig9";
  const auto result = system.psonar().psconfig().execute(
      paper_rate ? "psconfig config-P4 --samples_per_second 1"
                 : "psconfig config-P4 --samples_per_second 4");
  if (!result.ok) {
    throw std::runtime_error("e2e: psconfig: " + result.message);
  }
}

void add_traffic(const Workload& w, const ScenarioOptions& options,
                 core::MonitoringSystem& system) {
  const std::string name = w.name;
  const SimTime horizon = units::seconds_f(options.horizon_s);
  const SimTime t1 = units::seconds(1) + seed_offset(options.seed);
  if (name == "fig9") {
    // Two transfers from 1 s; the third joins three quarters in (45 s of
    // the 60 s horizon, as in bench/fig9).
    system.add_transfer(0).start_at(t1);
    system.add_transfer(1).start_at(t1);
    system.add_transfer(2).start_at(t1 - units::seconds(1) + horizon * 3 / 4);
  } else if (name == "fabric16") {
    // bench/fabric_scaling's mix: core transfers seen by every site plus
    // inter-site transfers the WAN switch routes around the core, all
    // stopping one second before the horizon.
    const SimTime stop = t1 + horizon - units::seconds(2);
    for (int ext = 0; ext < 3; ++ext) {
      auto& flow = system.add_transfer(ext);
      flow.start_at(t1 + units::milliseconds(200 * ext));
      flow.stop_at(stop);
    }
    auto& topology = system.topology();
    const std::pair<int, int> site_pairs[] = {{0, 1}, {1, 2}, {2, 0}};
    for (const auto& [src, dst] : site_pairs) {
      auto& flow =
          system.add_flow(*topology.dtn_ext[static_cast<std::size_t>(src)],
                          *topology.dtn_ext[static_cast<std::size_t>(dst)]);
      flow.start_at(t1 + units::milliseconds(100 * src));
      flow.stop_at(stop);
    }
  } else if (name == "engines_quic") {
    system.add_transfer(0).start_at(t1);
    system.add_transfer(1).start_at(t1);
    system.add_quic_transfer(1).start_at(t1);
    system.add_quic_transfer(2).start_at(t1);
  }
}

}  // namespace p4s::e2e
