// ProgramVm — the switch-side interpreter hosting installed measurement
// programs behind the engine registry.
//
// One VM instance per monitored switch, enrolled once via
// DataPlaneProgram::register_packet_engine(). It receives every parsed
// copy (on_packet) and every tracked data packet (on_tracked_data)
// through the shared FieldView accessor table, evaluates each installed
// program's match predicate, and runs its register ops:
//
//   * flow-scope programs own register WINDOWS — one kFlowSlots-wide
//     RegisterArray row per program register, indexed by the tracked
//     flow's slot. Rows come out of a fixed budget (Config::row_budget)
//     so a runaway install cannot grow switch memory; clear_slot /
//     slot_cleared integrate the windows with the fabric's slot-release
//     invariant exactly like the hand-written engines.
//   * switch-scope programs get one cell per register and run on every
//     parsed copy (both TAP points), like the histogram engines.
//
// bind(cp) plugs the VM into a ControlPlane: each program's export spec
// instantiates a MetricExtractor by name at run time (per-program timer,
// configurable through the existing name-based set_samples_per_second /
// set_alert APIs), and program digests drain through a registered digest
// source into "program_digest" reports. install / update / remove keep
// the extractor table in sync.
//
// Determinism: the VM holds the per-program export state (prev value,
// prev extraction time, last computed metric) itself, NOT in the control
// plane's FlowState, and wipes it in clear_slot — so a recycled slot can
// never leak another flow's rate baseline, and runs at every worker
// count observe identical values (the fabric's driver_sync barrier runs
// before every extractor tick, VM extractors included, and before every
// install or remove).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "mpl/ir.hpp"
#include "p4/register.hpp"
#include "sketch/histogram.hpp"
#include "telemetry/packet_engine.hpp"
#include "telemetry/types.hpp"

namespace p4s::cp {
class ControlPlane;
}

namespace p4s::mpl {

/// One emitted program digest (digest.every matched packets).
struct ProgramDigest {
  std::string program;
  std::uint32_t flow_id = 0;  // 0 for switch-scope programs
  std::uint16_t slot = 0;     // tracked slot (flow scope) or 0
  std::uint64_t value = 0;    // watched register at emit time
  SimTime at = 0;
};

class ProgramVm : public telemetry::PacketEngine {
 public:
  struct Config {
    /// Register-row budget shared by all installed flow-scope programs;
    /// each row is a kFlowSlots-wide uint64 window. 64 rows ~ 1 MiB of
    /// switch SRAM — in line with one more sketch, not a new pipeline.
    std::size_t row_budget = 64;
  };

  ProgramVm();
  explicit ProgramVm(Config config);

  ProgramVm(const ProgramVm&) = delete;
  ProgramVm& operator=(const ProgramVm&) = delete;

  /// Attach the VM to a control plane: registers export extractors for
  /// every already-installed program and a digest source for program
  /// digests. Call at most once, before or after installs.
  void bind(cp::ControlPlane& cp);

  /// Install a compiled program. A program with the same name is
  /// replaced atomically (its extractor is re-registered so a changed
  /// export spec takes effect). Throws std::invalid_argument when the
  /// register-row budget would be exceeded or the export metric name
  /// collides with a different extractor. Both install and remove first
  /// run the bound control plane's driver sync, so a change mid-run
  /// lands between the copies delivered before and at the current time.
  void install(Program program);

  /// Remove by name; unregisters the export extractor. Returns false if
  /// no such program is installed.
  bool remove(std::string_view name);

  std::size_t program_count() const { return programs_.size(); }
  const Program* find(std::string_view name) const;

  std::size_t rows_in_use() const { return rows_in_use_; }
  std::size_t row_budget() const { return config_.row_budget; }

  // ---- Observability (tests / tooling) --------------------------------
  /// Register value: flow scope reads the window cell at `slot`,
  /// switch scope ignores `slot`. Throws on unknown program/register.
  std::uint64_t reg(std::string_view program, std::uint8_t r,
                    std::uint16_t slot = 0) const;
  /// Program histogram, or nullptr when the program has none.
  const sketch::Histogram* histogram(std::string_view program) const;
  /// Packets that matched the program's predicate.
  std::uint64_t matched(std::string_view program) const;

  /// Drain pending program digests (the control plane's poll loop does
  /// this through the registered digest source).
  std::vector<ProgramDigest> drain_digests();

  // ---- telemetry::PacketEngine ----------------------------------------
  std::string_view name() const override { return "program_vm"; }
  void on_packet(const telemetry::FieldView& view) override;
  void on_tracked_data(std::uint16_t slot,
                       const telemetry::FieldView& view) override;
  void clear_slot(std::uint16_t slot) override;
  bool slot_cleared(std::uint16_t slot) const override;
  std::size_t pending_digests() const override { return digests_.size(); }

 private:
  /// Per-slot export bookkeeping for rate exports; mirrors the builtin
  /// throughput reader's prev/prev_at/last triple exactly so a program
  /// port of a builtin reproduces its values bit-for-bit.
  struct ExportState {
    std::uint64_t prev = 0;
    SimTime prev_at = 0;
    double last = 0.0;
  };

  struct Installed {
    Program program;
    /// program.registers rows: kFlowSlots cells (flow) or 1 (switch).
    std::vector<p4::RegisterArray<std::uint64_t>> rows;
    std::unique_ptr<sketch::Histogram> hist;
    std::uint64_t matched = 0;
    std::uint32_t digest_countdown = 0;
    /// kFlowSlots entries (flow) or 1 (switch); wiped by clear_slot.
    std::vector<ExportState> export_state;
  };

  static bool matches(const Program& program,
                      const telemetry::FieldView& view);
  void run_ops(Installed& p, std::size_t cell,
               const telemetry::FieldView& view, SimTime now);
  void register_export(Installed& p);
  /// The extractor's read callback: replicate the builtin rate
  /// arithmetic over the program's register window.
  double read_export(Installed& p, std::size_t cell, SimTime detected_at,
                     SimTime now);
  std::size_t index_of(std::string_view name) const;  // npos if absent

  Config config_;
  cp::ControlPlane* cp_ = nullptr;
  /// unique_ptr so Installed* captured by extractor closures stays
  /// stable across installs and removals.
  std::vector<std::unique_ptr<Installed>> programs_;
  std::size_t rows_in_use_ = 0;
  std::deque<ProgramDigest> digests_;
  std::uint64_t digests_dropped_ = 0;
  static constexpr std::size_t kDigestCapacity = 4096;
};

}  // namespace p4s::mpl
