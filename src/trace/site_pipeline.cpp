#include "trace/site_pipeline.hpp"

#include <utility>

#include "controlplane/engine_exports.hpp"

namespace p4s::trace {

SitePipeline::SitePipeline(
    sim::Simulation& sim, sim::Simulation& pipeline_sim,
    const std::string& switch_name,
    const telemetry::DataPlaneProgram::Config& program_config,
    cp::ControlPlaneConfig control_config,
    const std::vector<mpl::Program>& fabric_programs,
    const std::vector<mpl::Program>& site_programs)
    : program_(program_config),
      p4_switch_(pipeline_sim, switch_name),
      control_plane_(sim, program_, std::move(control_config)) {
  program_.register_packet_engine(vm_);
  p4_switch_.load_program(program_);
  cp::register_engine_exports(control_plane_, program_);
  vm_.bind(control_plane_);
  for (const mpl::Program& program : fabric_programs) vm_.install(program);
  for (const mpl::Program& program : site_programs) vm_.install(program);
}

}  // namespace p4s::trace
