// The e2e workloads: what each one configures, which traffic it runs and
// why it is in the benchmark. Every workload is built through the public
// core::config_from_text / core::MonitoringSystem API; the seed goes
// into the config's "seed" and shifts the whole traffic pattern by up to
// 100 ms, and is the only input that varies between runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/monitoring_system.hpp"
#include "util/json.hpp"

namespace p4s::e2e {

struct Workload {
  const char* name;
  const char* why;
  /// Simulated seconds of one timed rep, and of one --quick rep.
  double horizon_s;
  double quick_horizon_s;
  /// Simulated time between dashboard refreshes (Dashboard in rep.cpp).
  double dashboard_period_ms;
  /// Simulated length of one timed step of a rep. Every step holds the
  /// same periodic work (report ticks, dashboard refreshes, store
  /// maintenance), so the per-step walls of a rep are comparable.
  double step_s;
};

/// The benchmark's workloads, in the order the interleaved reps run.
const std::vector<Workload>& workloads();
/// nullptr when no workload has this name.
const Workload* find_workload(std::string_view name);

struct ScenarioOptions {
  std::uint64_t seed = 1;
  double horizon_s = 0.0;
  /// Store directory of a durable workload (created by the Store).
  std::string store_dir;
  /// 0 keeps the workload's own switches.parallel; 1 forces the serial
  /// path (the fabric16 speedup rerun).
  std::size_t parallel = 0;
};

/// The workload's config document.
std::string config_text(const Workload& w, const ScenarioOptions& options);

/// The shipped examples/programs/*.mpl.json documents, as a JSON array
/// (engines_quic installs them; the traced replay runs them everywhere).
util::Json shipped_programs();

/// The pSConfig report-rate command, run before start().
void configure_reporting(const Workload& w, core::MonitoringSystem& system);

/// Transfers the config document cannot express, added after start().
void add_traffic(const Workload& w, const ScenarioOptions& options,
                 core::MonitoringSystem& system);

}  // namespace p4s::e2e
