// pSConfig with the paper's `config-P4` extension (§3.3.5, Figure 6).
//
// The added command configures the programmable switch's control plane
// from a perfSONAR node at run time:
//
//   psconfig config-P4 --metric throughput --samples_per_second 1
//   psconfig config-P4 --metric RTT --samples_per_second 2
//   psconfig config-P4 --metric queue_occupancy --alert --threshold 30
//                      --samples_per_second 10
//
// Without --alert, --samples_per_second sets the metric's extraction
// rate. With --alert, --threshold sets the alert threshold and
// --samples_per_second sets the boosted rate used while the threshold is
// exceeded. Every metric is addressed by its name alone (Figure 6's
// "RTT" is the rtt metric). Omitting --metric applies the configuration
// to the four paper metrics (§3.3.5); registered extension metrics keep
// their own rates.
//
// In a monitoring fabric several switch control planes register with one
// pSConfig (one per monitored site); `--switch <id>` targets a specific
// instance by its configured id or zero-based index, and omitting it
// applies the command to every registered switch:
//
//   psconfig config-P4 --switch site-b --metric rtt --samples_per_second 2
//
// Runtime-programmable measurements (src/mpl): --install-program
// compiles a .mpl.json measurement program and installs it on the
// targeted switches' VMs; --remove-program uninstalls by name. An
// installed program's exported metric is configurable by name like the
// paper metrics:
//
//   psconfig config-P4 --install-program byte_counter.mpl.json
//                      --switch site-b
//   psconfig config-P4 --metric vm_throughput --samples_per_second 4
//   psconfig config-P4 --remove-program byte_counter
//
// pSConfig also carries its original duty: JSON mesh templates that
// define which active tests run between which hosts on what schedule
// (apply_mesh). Template format (a compact pscfg.json analogue):
//
//   {
//     "tasks": [
//       {"type": "throughput", "src": "psonar-internal",
//        "dst": "psonar-ext1", "start_s": 1, "duration_s": 10,
//        "repeat_s": 60},
//       {"type": "latency",   ..., "count": 10},
//       {"type": "trace",     ..., "max_hops": 8},
//       {"type": "udp_stream",..., "rate_mbps": 10, "duration_s": 5}
//     ]
//   }
//
// Absent keys keep their defaults (start_s 1, repeat_s 0, duration_s 10
// or 5 for udp_stream, count 10, max_hops 8, rate_mbps 10). Present
// values are checked before anything is scheduled, and a bad one is
// named by its path ("mesh: 'tasks[1].count' must be in [1, 65535]").
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "controlplane/control_plane.hpp"
#include "psonar/pscheduler.hpp"
#include "util/json.hpp"

namespace p4s::mpl {
class ProgramVm;
}

namespace p4s::ps {

class PsConfig {
 public:
  PsConfig() = default;
  explicit PsConfig(cp::ControlPlane& control_plane) {
    attach(control_plane);
  }

  /// Point the configuration layer at a single switch control plane
  /// (the legacy single-switch entry point; replaces any registrations).
  void attach(cp::ControlPlane& control_plane) {
    planes_.clear();
    add_control_plane(control_plane, "");
  }

  /// Register one monitored switch's control plane under its id. Fabric
  /// deployments call this once per site; config-P4 then targets one via
  /// --switch <id|index> or all of them when --switch is omitted. `vm`
  /// is the switch's measurement-program VM when it has one —
  /// --install-program / --remove-program target it.
  void add_control_plane(cp::ControlPlane& control_plane, std::string id,
                         mpl::ProgramVm* vm = nullptr) {
    planes_.push_back(Plane{std::move(id), &control_plane, vm});
  }

  struct Result {
    bool ok = false;
    std::string message;
  };

  /// Execute a full command line ("psconfig config-P4 ...").
  Result execute(const std::string& command_line);

  /// History of executed command lines (successful ones), as pSConfig's
  /// audit trail.
  const std::vector<std::string>& history() const { return history_; }

  /// Apply a JSON mesh template: schedules every task on `scheduler`,
  /// resolving host names through `hosts`. Returns ok with the number of
  /// scheduled tasks in the message, or the first error encountered
  /// (nothing is scheduled on error — templates apply atomically).
  Result apply_mesh(const util::Json& mesh, PScheduler& scheduler,
                    const std::map<std::string, net::Host*>& hosts);

  /// Convenience: parse `text` as JSON, then apply_mesh.
  Result apply_mesh_text(const std::string& text, PScheduler& scheduler,
                         const std::map<std::string, net::Host*>& hosts);

 private:
  struct Plane {
    std::string id;
    cp::ControlPlane* control_plane = nullptr;
    mpl::ProgramVm* vm = nullptr;
  };

  Result run_config_p4(const std::vector<std::string>& args,
                       const std::string& original);

  std::vector<Plane> planes_;
  std::vector<std::string> history_;
};

}  // namespace p4s::ps
