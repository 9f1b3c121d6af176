// SitePipeline — one monitored site's measurement stack, assembled in
// one place for the live fabric (core::MonitoredSwitch) and for trace
// replay (ReplayPipeline), so a replayed site cannot drift from a live
// one:
//
//   * the telemetry DataPlaneProgram, with every optional engine its
//     config names;
//   * the measurement-program VM, always present behind the program's
//     engine registry (a no-op on the packet path while nothing is
//     installed);
//   * the P4 switch running the program;
//   * the control plane, with the optional engines' extractors and
//     digest sources registered, then the VM bound (its export
//     extractors and digest source hang off this control plane), then
//     the fabric-wide programs installed before the site's own — a
//     same-named site program replaces the fabric-wide install.
#pragma once

#include <string>
#include <vector>

#include "controlplane/control_plane.hpp"
#include "mpl/vm.hpp"
#include "p4/p4_switch.hpp"
#include "sim/simulation.hpp"
#include "telemetry/dataplane_program.hpp"

namespace p4s::trace {

class SitePipeline {
 public:
  /// The control plane runs on `sim`; the P4 switch reads its timestamps
  /// from `pipeline_sim` (the same simulation unless the site's mirror
  /// pipeline is a parallel-fabric shard).
  SitePipeline(sim::Simulation& sim, sim::Simulation& pipeline_sim,
               const std::string& switch_name,
               const telemetry::DataPlaneProgram::Config& program_config,
               cp::ControlPlaneConfig control_config,
               const std::vector<mpl::Program>& fabric_programs,
               const std::vector<mpl::Program>& site_programs);

  SitePipeline(const SitePipeline&) = delete;
  SitePipeline& operator=(const SitePipeline&) = delete;

  telemetry::DataPlaneProgram& program() { return program_; }
  /// Always present; empty unless programs were configured or installed
  /// via config-P4.
  mpl::ProgramVm& program_vm() { return vm_; }
  p4::P4Switch& p4_switch() { return p4_switch_; }
  cp::ControlPlane& control_plane() { return control_plane_; }

 private:
  telemetry::DataPlaneProgram program_;
  mpl::ProgramVm vm_;
  p4::P4Switch p4_switch_;
  cp::ControlPlane control_plane_;
};

}  // namespace p4s::trace
