// Measurement program library (src/mpl): compiler diagnostics, the
// interpreter's op semantics, register-window/slot-release integration,
// the control-plane export seam, and pSConfig's --install-program /
// --remove-program surface.
#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "controlplane/control_plane.hpp"
#include "mpl/compiler.hpp"
#include "mpl/vm.hpp"
#include "p4/hash.hpp"
#include "p4/parser.hpp"
#include "psonar/psconfig.hpp"
#include "sim/simulation.hpp"
#include "telemetry/dataplane_program.hpp"
#include "telemetry/field_view.hpp"

#define EXPECT_SUBSTR(haystack, needle)                                \
  do {                                                                 \
    const std::string hay = (haystack);                                \
    EXPECT_NE(hay.find(needle), std::string::npos)                     \
        << "expected substring '" << (needle) << "' in: " << hay;      \
  } while (0)

namespace p4s {
namespace {

using mpl::Program;
using mpl::ProgramVm;

// ---------------------------------------------------------- compiler

const char* kByteCounterText = R"({
  "name": "byte_counter",
  "scope": "flow",
  "ops": [
    {"op": "add", "dst": 0, "field": "ipv4_total_len"},
    {"op": "count", "dst": 1}
  ],
  "export": {
    "metric": "vm_throughput",
    "value_key": "throughput_bps",
    "value": "rate_bps",
    "register": 0,
    "samples_per_second": 2
  }
})";

TEST(MplCompiler, CompilesByteCounter) {
  const Program p = mpl::compile_program_text(kByteCounterText, "");
  EXPECT_EQ(p.name, "byte_counter");
  EXPECT_EQ(p.scope, mpl::Scope::kFlow);
  ASSERT_EQ(p.ops.size(), 2u);
  EXPECT_EQ(p.ops[0].kind, mpl::OpKind::kAdd);
  EXPECT_TRUE(p.ops[0].src.is_field);
  EXPECT_EQ(p.ops[0].src.field, telemetry::FieldId::kIpv4TotalLen);
  EXPECT_EQ(p.ops[1].kind, mpl::OpKind::kCount);
  EXPECT_EQ(p.registers, 2u);
  ASSERT_TRUE(p.export_spec.has_value());
  EXPECT_EQ(p.export_spec->metric, "vm_throughput");
  EXPECT_EQ(p.export_spec->value_key, "throughput_bps");
  EXPECT_EQ(p.export_spec->value.kind, mpl::ExportValue::Kind::kRateBps);
  EXPECT_EQ(p.export_spec->value.reg, 0u);
  EXPECT_DOUBLE_EQ(p.export_spec->samples_per_second, 2.0);
}

TEST(MplCompiler, RoundTripsThroughJson) {
  const Program p = mpl::compile_program_text(kByteCounterText, "");
  const util::Json doc = mpl::program_to_json(p);
  const Program again = mpl::compile_program(doc, "");
  EXPECT_EQ(mpl::program_to_json(again).dump(), doc.dump());
}

std::string compile_error(const std::string& text,
                          const std::string& path = "") {
  try {
    mpl::compile_program_text(text, path);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(MplCompiler, DiagnosticsCarryTheFullJsonPath) {
  // The acceptance example: a bad field inside the third op of the
  // first program of the second switch names the exact key.
  const std::string msg = compile_error(
      R"({"name": "x", "ops": [
            {"op": "count", "dst": 0},
            {"op": "count", "dst": 1},
            {"op": "add", "dst": 2, "field": "bogus_field"}
          ]})",
      "switches[1].programs[0]");
  EXPECT_SUBSTR(msg, "switches[1].programs[0].ops[2].field");

  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "warp"}]})"), "ops[0].op");
  EXPECT_SUBSTR(compile_error( R"({"name": "x", "ops": [{"op": "count", "dst": 0}], "match": [{"field": "flow_id", "cmp": "??", "value": 1}]})"), "match[0].cmp");
  EXPECT_SUBSTR(compile_error( R"({"name": "x", "ops": [{"op": "count", "dst": 0}], "export": {"metric": "m", "value": "sideways"}})"), "export.value");
}

TEST(MplCompiler, ValidationBattery) {
  // Structural requirements.
  EXPECT_SUBSTR(compile_error(R"({"ops": [{"op": "count", "dst": 0}]})"), "needs 'name'");
  EXPECT_SUBSTR(compile_error(R"({"name": "x"})"), "needs at least one op");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "bogus": 1, "ops": [{"op": "count", "dst": 0}]})"), "bogus");
  // Sources and destinations.
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "add", "dst": 0}]})"), "needs a 'field' or 'imm'");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "add", "dst": 99, "imm": 1}]})"), "register index");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "add", "dst": 0, "imm": 1, "field": "flow_id"}]})"), "conflicts");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "add", "dst": 0, "imm": 1, "weight": 4}]})"), "only applies to op 'ewma'");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "ewma", "dst": 0, "imm": 1, "weight": 1}]})"), "2..1024");
  // Histogram coupling.
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "scope": "switch", "ops": [{"op": "histogram_bin", "imm": 1}]})"), "no 'histogram' section");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "histogram": {"min": 1, "max": 10}, "ops": [{"op": "count", "dst": 0}]})"), "no op is 'histogram_bin'");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "scope": "flow", "histogram": {"min": 1, "max": 10}, "ops": [{"op": "histogram_bin", "imm": 1}]})"), "requires scope 'switch'");
  // Export coupling.
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "count", "dst": 0}], "export": {"metric": "m", "value": "quantile"}})"), "no histogram");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "count", "dst": 0}], "export": {"metric": "m", "value": "register", "register": 3}})"), "only writes registers 0..0");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "ops": [{"op": "count", "dst": 0}], "digest": {"every": 4, "register": 5}})"), "digest.register");
  EXPECT_SUBSTR(compile_error(R"({"name": "x", "scope": "diagonal", "ops": [{"op": "count", "dst": 0}]})"), "scope");
}

TEST(MplCompiler, NameMapsRoundTrip) {
  for (const mpl::Cmp cmp :
       {mpl::Cmp::kEq, mpl::Cmp::kNe, mpl::Cmp::kLt, mpl::Cmp::kLe,
        mpl::Cmp::kGt, mpl::Cmp::kGe}) {
    EXPECT_EQ(mpl::cmp_from_name(mpl::to_string(cmp)), cmp);
  }
  for (const mpl::OpKind kind :
       {mpl::OpKind::kCount, mpl::OpKind::kAdd, mpl::OpKind::kMin,
        mpl::OpKind::kMax, mpl::OpKind::kSet, mpl::OpKind::kEwma,
        mpl::OpKind::kHistogramBin}) {
    EXPECT_EQ(mpl::op_from_name(mpl::to_string(kind)), kind);
  }
  for (const mpl::Scope scope : {mpl::Scope::kFlow, mpl::Scope::kSwitch}) {
    EXPECT_EQ(mpl::scope_from_name(mpl::to_string(scope)), scope);
  }
  EXPECT_THROW(mpl::cmp_from_name("=="), std::invalid_argument);
  EXPECT_THROW(mpl::op_from_name("mul"), std::invalid_argument);
  EXPECT_THROW(mpl::scope_from_name("port"), std::invalid_argument);
}

// ---------------------------------------------------------- interpreter

// A hand-built parsed TCP packet: total_len is the knob the op tests
// turn, everything else is a fixed 5-tuple.
struct PacketFixture {
  p4::PacketContext ctx;
  p4::FlowKey fk;

  explicit PacketFixture(std::uint16_t total_len = 1500, SimTime ts = 0) {
    net::FiveTuple t;
    t.src_ip = 0x0A000001;
    t.dst_ip = 0x0A000002;
    t.src_port = 40000;
    t.dst_port = 5201;
    t.protocol = 6;
    fk = p4::FlowKey::from(t);
    ctx.hdr.ipv4_valid = true;
    ctx.hdr.ipv4.total_len = total_len;
    ctx.hdr.ipv4.protocol = 6;
    ctx.hdr.ipv4.src = t.src_ip;
    ctx.hdr.ipv4.dst = t.dst_ip;
    ctx.hdr.tcp_valid = true;
    ctx.hdr.tcp.src_port = t.src_port;
    ctx.hdr.tcp.dst_port = t.dst_port;
    ctx.meta.ingress_ts = ts;
  }

  telemetry::FieldView view(bool egress = false) const {
    return telemetry::FieldView(ctx, fk, egress);
  }
};

Program compile(const std::string& text) {
  return mpl::compile_program_text(text, "");
}

TEST(ProgramVmOps, RegisterOpSemantics) {
  ProgramVm vm;
  vm.install(compile(R"({
    "name": "ops", "scope": "switch",
    "ops": [
      {"op": "count", "dst": 0},
      {"op": "add", "dst": 1, "imm": 10},
      {"op": "min", "dst": 2, "field": "ipv4_total_len"},
      {"op": "max", "dst": 3, "field": "ipv4_total_len"},
      {"op": "set", "dst": 4, "field": "ipv4_total_len"},
      {"op": "ewma", "dst": 5, "field": "ipv4_total_len", "weight": 4}
    ]
  })"));
  for (const std::uint16_t len : {1500, 100, 400}) {
    vm.on_packet(PacketFixture(len).view());
  }
  EXPECT_EQ(vm.matched("ops"), 3u);
  EXPECT_EQ(vm.reg("ops", 0), 3u);        // count
  EXPECT_EQ(vm.reg("ops", 1), 30u);       // add imm
  EXPECT_EQ(vm.reg("ops", 2), 100u);      // min adopts, then takes 100
  EXPECT_EQ(vm.reg("ops", 3), 1500u);     // max
  EXPECT_EQ(vm.reg("ops", 4), 400u);      // set: last value wins
  // ewma w=4: 1500 (empty adopts), (3*1500+100)/4 = 1150,
  // (3*1150+400)/4 = 962 (integer division).
  EXPECT_EQ(vm.reg("ops", 5), 962u);
}

TEST(ProgramVmOps, MinEmptyRegisterAdoptsFirstSample) {
  ProgramVm vm;
  vm.install(compile(R"({"name": "m", "scope": "switch",
    "ops": [{"op": "min", "dst": 0, "field": "ipv4_total_len"}]})"));
  EXPECT_EQ(vm.reg("m", 0), 0u);
  vm.on_packet(PacketFixture(900).view());
  EXPECT_EQ(vm.reg("m", 0), 900u);  // NOT min(0, 900)
  vm.on_packet(PacketFixture(1500).view());
  EXPECT_EQ(vm.reg("m", 0), 900u);
  vm.on_packet(PacketFixture(60).view());
  EXPECT_EQ(vm.reg("m", 0), 60u);
}

TEST(ProgramVmOps, MatchPredicateGatesOps) {
  ProgramVm vm;
  vm.install(compile(R"({
    "name": "big", "scope": "switch",
    "match": [{"field": "ipv4_total_len", "cmp": "ge", "value": 1000},
              {"field": "is_tcp", "cmp": "eq", "value": 1}],
    "ops": [{"op": "count", "dst": 0}]
  })"));
  vm.on_packet(PacketFixture(1500).view());
  vm.on_packet(PacketFixture(500).view());  // fails the ge condition
  vm.on_packet(PacketFixture(1000).view());
  EXPECT_EQ(vm.matched("big"), 2u);
  EXPECT_EQ(vm.reg("big", 0), 2u);
}

TEST(ProgramVmOps, FlowWindowsIndexBySlotAndClearOnRelease) {
  ProgramVm vm;
  vm.install(compile(R"({"name": "bytes", "scope": "flow",
    "ops": [{"op": "add", "dst": 0, "field": "ipv4_total_len"}]})"));
  vm.on_tracked_data(3, PacketFixture(1000).view());
  vm.on_tracked_data(3, PacketFixture(500).view());
  vm.on_tracked_data(5, PacketFixture(700).view());
  EXPECT_EQ(vm.reg("bytes", 0, 3), 1500u);
  EXPECT_EQ(vm.reg("bytes", 0, 5), 700u);
  EXPECT_FALSE(vm.slot_cleared(3));
  vm.clear_slot(3);
  EXPECT_TRUE(vm.slot_cleared(3));
  EXPECT_EQ(vm.reg("bytes", 0, 3), 0u);
  EXPECT_EQ(vm.reg("bytes", 0, 5), 700u);  // other slots untouched
}

TEST(ProgramVmOps, SwitchScopeRunsOnBothTapCopies) {
  ProgramVm vm;
  vm.install(compile(R"({"name": "all", "scope": "switch",
    "ops": [{"op": "count", "dst": 0}]})"));
  const PacketFixture pkt(1500);
  vm.on_packet(pkt.view(false));
  vm.on_packet(pkt.view(true));
  EXPECT_EQ(vm.reg("all", 0), 2u);
}

TEST(ProgramVmOps, HistogramProgramBinsAndQuantiles) {
  ProgramVm vm;
  vm.install(compile(R"({
    "name": "sizes", "scope": "switch",
    "ops": [{"op": "histogram_bin", "field": "ipv4_total_len"}],
    "histogram": {"scale": "linear", "min": 1, "max": 2000, "bins": 20}
  })"));
  for (int i = 0; i < 100; ++i) {
    vm.on_packet(PacketFixture(1500).view());
  }
  const sketch::Histogram* hist = vm.histogram("sizes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->total(), 100u);
  EXPECT_NEAR(hist->quantile(0.5), 1500.0, 100.0);
  EXPECT_EQ(vm.histogram("sizes") != nullptr, true);
}

TEST(ProgramVmOps, DigestsEveryNthMatchedPacket) {
  ProgramVm vm;
  vm.install(compile(R"({"name": "d", "scope": "flow",
    "ops": [{"op": "add", "dst": 0, "field": "ipv4_total_len"}],
    "digest": {"every": 2, "register": 0}})"));
  for (int i = 0; i < 5; ++i) {
    vm.on_tracked_data(7, PacketFixture(100, units::seconds(i)).view());
  }
  EXPECT_EQ(vm.pending_digests(), 2u);
  const auto digests = vm.drain_digests();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0].program, "d");
  EXPECT_EQ(digests[0].slot, 7u);
  EXPECT_EQ(digests[0].value, 200u);  // after the 2nd add
  EXPECT_EQ(digests[1].value, 400u);  // after the 4th
  EXPECT_EQ(digests[1].at, units::seconds(3));
  EXPECT_EQ(vm.pending_digests(), 0u);
}

TEST(ProgramVmOps, RowBudgetIsEnforcedAtomically) {
  ProgramVm vm(ProgramVm::Config{2});
  EXPECT_EQ(vm.row_budget(), 2u);
  EXPECT_THROW(
      vm.install(compile(R"({"name": "fat", "scope": "flow",
        "ops": [{"op": "count", "dst": 2}]})")),  // 3 registers
      std::invalid_argument);
  EXPECT_EQ(vm.program_count(), 0u);
  EXPECT_EQ(vm.rows_in_use(), 0u);

  vm.install(compile(R"({"name": "two", "scope": "flow",
    "ops": [{"op": "count", "dst": 1}]})"));
  EXPECT_EQ(vm.rows_in_use(), 2u);
  // Switch-scope programs don't consume window rows.
  vm.install(compile(R"({"name": "sw", "scope": "switch",
    "ops": [{"op": "count", "dst": 0}]})"));
  EXPECT_EQ(vm.rows_in_use(), 2u);
  // Replacing "two" with a 1-register version frees a row...
  vm.install(compile(R"({"name": "two", "scope": "flow",
    "ops": [{"op": "count", "dst": 0}]})"));
  EXPECT_EQ(vm.rows_in_use(), 1u);
  // ...and removal releases the rest.
  EXPECT_TRUE(vm.remove("two"));
  EXPECT_EQ(vm.rows_in_use(), 0u);
  EXPECT_FALSE(vm.remove("two"));
}

TEST(ProgramVmOps, ReplaceByNameSwapsTheProgram) {
  ProgramVm vm;
  vm.install(compile(R"({"name": "p", "scope": "switch",
    "ops": [{"op": "count", "dst": 0}]})"));
  vm.on_packet(PacketFixture(100).view());
  EXPECT_EQ(vm.reg("p", 0), 1u);
  vm.install(compile(R"({"name": "p", "scope": "switch",
    "ops": [{"op": "add", "dst": 0, "imm": 5}]})"));
  EXPECT_EQ(vm.program_count(), 1u);
  EXPECT_EQ(vm.reg("p", 0), 0u);  // fresh registers
  vm.on_packet(PacketFixture(100).view());
  EXPECT_EQ(vm.reg("p", 0), 5u);
}

TEST(ProgramVmOps, ObservabilityThrowsOnUnknownNames) {
  ProgramVm vm;
  EXPECT_THROW(vm.reg("nope", 0), std::invalid_argument);
  EXPECT_THROW(vm.histogram("nope"), std::invalid_argument);
  EXPECT_THROW(vm.matched("nope"), std::invalid_argument);
  vm.install(compile(R"({"name": "p", "scope": "switch",
    "ops": [{"op": "count", "dst": 0}]})"));
  EXPECT_THROW(vm.reg("p", 9), std::invalid_argument);
  EXPECT_EQ(vm.histogram("p"), nullptr);
  EXPECT_EQ(vm.find("p")->name, "p");
  EXPECT_EQ(vm.find("q"), nullptr);
}

// ------------------------------------------------- control-plane seam

struct VmControlPlaneFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  cp::ControlPlaneConfig cp_config;
  cp::ControlPlane control{sim, program, cp_config};
  ProgramVm vm;
};

TEST_F(VmControlPlaneFixture, InstallRegistersAnExtractorByName) {
  vm.bind(control);
  const std::size_t builtin_count = control.extractor_count();
  vm.install(compile(kByteCounterText));
  EXPECT_EQ(control.extractor_count(), builtin_count + 1);
  EXPECT_TRUE(control.has_extractor("vm_throughput"));
  // Per-program timer configuration through the existing name-based API.
  EXPECT_EQ(control.extractor_config("vm_throughput").interval,
            units::seconds_f(0.5));
  control.set_samples_per_second("vm_throughput", 4);
  EXPECT_EQ(control.extractor_config("vm_throughput").interval,
            units::seconds_f(0.25));
  // Removal unregisters and frees the name.
  EXPECT_TRUE(vm.remove("byte_counter"));
  EXPECT_EQ(control.extractor_count(), builtin_count);
  EXPECT_FALSE(control.has_extractor("vm_throughput"));
}

TEST_F(VmControlPlaneFixture, MetricCollisionsAreRejectedBeforeMutation) {
  vm.bind(control);
  // Colliding with a builtin.
  EXPECT_THROW(vm.install(compile(R"({"name": "evil", "scope": "flow",
    "ops": [{"op": "count", "dst": 0}],
    "export": {"metric": "throughput", "value": "register",
               "register": 0}})")),
               std::invalid_argument);
  EXPECT_EQ(vm.program_count(), 0u);
  // Colliding with another program's export.
  vm.install(compile(kByteCounterText));
  EXPECT_THROW(vm.install(compile(R"({"name": "other", "scope": "flow",
    "ops": [{"op": "count", "dst": 0}],
    "export": {"metric": "vm_throughput", "value": "register",
               "register": 0}})")),
               std::invalid_argument);
  EXPECT_EQ(vm.program_count(), 1u);
  // Replacing a program with its own metric is NOT a collision.
  vm.install(compile(kByteCounterText));
  EXPECT_EQ(vm.program_count(), 1u);
  EXPECT_TRUE(control.has_extractor("vm_throughput"));
}

TEST_F(VmControlPlaneFixture, BindAfterInstallRegistersExports) {
  vm.install(compile(kByteCounterText));
  EXPECT_FALSE(control.has_extractor("vm_throughput"));
  vm.bind(control);
  EXPECT_TRUE(control.has_extractor("vm_throughput"));
  EXPECT_THROW(vm.bind(control), std::logic_error);
}

// ------------------------------------------------------- pSConfig CLI

struct PsConfigVmFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  cp::ControlPlaneConfig cp_config;
  cp::ControlPlane control{sim, program, cp_config};
  ProgramVm vm;
  ps::PsConfig psconfig;

  void SetUp() override {
    vm.bind(control);
    psconfig.add_control_plane(control, "core", &vm);
  }

  // Named after the running test, so tests run in parallel (ctest -j)
  // never overwrite each other's program file.
  std::string write_program(const std::string& text) {
    const std::string path =
        ::testing::TempDir() + "mpl_psconfig_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json";
    std::ofstream out(path, std::ios::trunc);
    out << text;
    return path;
  }
};

TEST_F(PsConfigVmFixture, InstallConfigureRemoveRoundTrip) {
  const std::string file = write_program(kByteCounterText);
  auto result = psconfig.execute(
      "psconfig config-P4 --install-program " + file + " --switch core");
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_SUBSTR(result.message, "byte_counter");
  ASSERT_NE(vm.find("byte_counter"), nullptr);
  EXPECT_TRUE(control.has_extractor("vm_throughput"));

  // The installed program's metric is configurable like a builtin.
  result = psconfig.execute(
      "psconfig config-P4 --metric vm_throughput --samples_per_second 4");
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(control.extractor_config("vm_throughput").interval,
            units::seconds_f(0.25));
  result = psconfig.execute(
      "psconfig config-P4 --metric vm_throughput --alert --threshold 1e9");
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_TRUE(control.extractor_config("vm_throughput").alert_enabled);

  result = psconfig.execute(
      "psconfig config-P4 --remove-program byte_counter");
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(vm.find("byte_counter"), nullptr);
  EXPECT_FALSE(control.has_extractor("vm_throughput"));
  // Removing again reports the absence.
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --remove-program byte_counter")
          .ok);
}

TEST_F(PsConfigVmFixture, InstallErrorsAreReported) {
  // Unreadable file.
  EXPECT_FALSE(psconfig
                   .execute("psconfig config-P4 --install-program "
                            "/nonexistent/p.mpl.json")
                   .ok);
  // Compile error carries the program diagnostic.
  const std::string bad =
      write_program(R"({"name": "x", "ops": [{"op": "warp"}]})");
  const auto result =
      psconfig.execute("psconfig config-P4 --install-program " + bad);
  EXPECT_FALSE(result.ok);
  EXPECT_SUBSTR(result.message, "ops[0].op");
  // Program actions don't combine with metric configuration.
  const std::string file = write_program(kByteCounterText);
  EXPECT_FALSE(psconfig
                   .execute("psconfig config-P4 --install-program " + file +
                            " --metric throughput --samples_per_second 1")
                   .ok);
  // Unknown metric names still fail cleanly.
  EXPECT_FALSE(psconfig
                   .execute("psconfig config-P4 --metric vm_nope "
                            "--samples_per_second 1")
                   .ok);
}

TEST_F(PsConfigVmFixture, SwitchWithoutVmRejectsProgramActions) {
  cp::ControlPlane bare{sim, program, cp_config};
  ps::PsConfig cfg;
  cfg.add_control_plane(bare, "legacy");  // no VM registered
  const std::string file = write_program(kByteCounterText);
  const auto result =
      cfg.execute("psconfig config-P4 --install-program " + file);
  EXPECT_FALSE(result.ok);
  EXPECT_SUBSTR(result.message, "no measurement-program VM");
}

TEST(MplCompiler, DiagnosticTextIsPinned) {
  // The exact text of every diagnostic shape the compiler produces.
  constexpr const char* kOps = R"("ops": [{"op": "count", "dst": 0}])";
  auto with_ops = [&](const std::string& keys) {
    return "{" + keys + ", " + kOps + "}";
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"([])", "program: 'program' must be an object"},
      {with_ops(R"("name": 3)"), "program: 'name' must be a string"},
      {with_ops(R"("name": "")"), "program: 'name' must not be empty"},
      {with_ops(R"("name": "x", "scope": "diag")"),
       "program: 'scope' unknown scope: diag"},
      {with_ops(R"("name": "x", "bogus": 1)"),
       "program: 'bogus' is not a known program key"},
      {with_ops(R"("name": "x", "match": 3)"),
       "program: 'match' must be an array"},
      {with_ops(R"("name": "x", "match": [3])"),
       "program: 'match[0]' must be an object"},
      {with_ops(R"("name": "x", "match": [{"field": "flow_id", "cmp": "??", "value": 1}])"),
       "program: 'match[0].cmp' unknown cmp: ??"},
      {with_ops(R"("name": "x", "match": [{"field": "flux", "value": 1}])"),
       "program: 'match[0].field' unknown field: flux"},
      {with_ops(R"("name": "x", "match": [{"field": "flow_id", "value": -1}])"),
       "program: 'match[0].value' must be a non-negative integer"},
      {with_ops(R"("name": "x", "match": [{"field": "flow_id", "value": 1, "x": 2}])"),
       "program: 'match[0].x' is not a known match key"},
      {with_ops(R"("name": "x", "match": [{"cmp": "eq", "value": 1}])"),
       "program: 'match[0]' needs 'field'"},
      {with_ops(R"("name": "x", "match": [{"field": "flow_id"}])"),
       "program: 'match[0]' needs 'value'"},
      {R"({"name": "x"})", "program: 'program' needs at least one op"},
      {R"({"ops": [{"op": "count", "dst": 0}]})",
       "program: 'program' needs 'name'"},
      {R"({"name": "x", "ops": 3})", "program: 'ops' must be an array"},
      {R"({"name": "x", "ops": [3]})", "program: 'ops[0]' must be an object"},
      {R"({"name": "x", "ops": [{"op": "warp"}]})",
       "program: 'ops[0].op' unknown op: warp"},
      {R"({"name": "x", "ops": [{"op": 1}]})",
       "program: 'ops[0].op' must be a string"},
      {R"({"name": "x", "ops": [{"op": "count", "dst": -1}]})",
       "program: 'ops[0].dst' must be a non-negative integer"},
      {R"({"name": "x", "ops": [{"op": "count", "dst": 1.5}]})",
       "program: 'ops[0].dst' must be a non-negative integer"},
      {R"({"name": "x", "ops": [{"op": "count", "dst": "a"}]})",
       "program: 'ops[0].dst' must be a number"},
      {R"({"name": "x", "ops": [{"op": "count", "dst": 99}]})",
       "program: 'ops[0].dst' must be a register index < 16"},
      {R"({"name": "x", "ops": [{"op": "add", "dst": 0, "field": "flux"}]})",
       "program: 'ops[0].field' unknown field: flux"},
      {R"({"name": "x", "ops": [{"op": "add", "dst": 0, "imm": 1, "field": "flow_id"}]})",
       "program: 'ops[0].imm' conflicts with 'field' (pick one source)"},
      {R"({"name": "x", "ops": [{"op": "add", "dst": 0}]})",
       "program: 'ops[0]' needs a 'field' or 'imm' source for op 'add'"},
      {R"({"name": "x", "ops": [{"op": "count"}]})",
       "program: 'ops[0]' needs 'dst'"},
      {R"({"name": "x", "ops": [{"dst": 0}]})", "program: 'ops[0]' needs 'op'"},
      {R"({"name": "x", "ops": [{"op": "ewma", "dst": 0, "imm": 1, "weight": 1}]})",
       "program: 'ops[0].weight' must be an integer in 2..1024"},
      {R"({"name": "x", "ops": [{"op": "add", "dst": 0, "imm": 1, "weight": 4}]})",
       "program: 'ops[0].weight' only applies to op 'ewma'"},
      {R"({"name": "x", "ops": [{"op": "count", "dst": 0, "q": 1}]})",
       "program: 'ops[0].q' is not a known op key"},
      {R"({"name": "x", "scope": "switch", "histogram": {"min": 1, "max": 10, "bins": 0}, "ops": [{"op": "histogram_bin", "imm": 1}]})",
       "program: 'histogram.bins' must be a positive integer"},
      {R"({"name": "x", "scope": "switch", "histogram": {"min": "a"}, "ops": [{"op": "histogram_bin", "imm": 1}]})",
       "program: 'histogram.min' must be a number"},
      {R"({"name": "x", "scope": "switch", "histogram": {"scale": "cubic"}, "ops": [{"op": "histogram_bin", "imm": 1}]})",
       "program: 'histogram.scale' unknown histogram scale: cubic"},
      {R"({"name": "x", "scope": "switch", "histogram": {"min": 10, "max": 1}, "ops": [{"op": "histogram_bin", "imm": 1}]})",
       "program: 'histogram' bin range must satisfy 0 < min < max"},
      {with_ops(R"("name": "x", "export": {"metric": "m", "quantile": 2})"),
       "program: 'export.quantile' must be in (0, 1)"},
      {with_ops(R"("name": "x", "export": {"metric": "m", "samples_per_second": -1})"),
       "program: 'export.samples_per_second' must be a finite value > 0"},
      {with_ops(R"("name": "x", "export": {"metric": ""})"),
       "program: 'export.metric' must not be empty"},
      {with_ops(R"("name": "x", "export": {"metric": "m", "value": "sideways"})"),
       "program: 'export.value' must be 'register', 'rate_per_s', "
       "'rate_bps' or 'quantile'"},
      {with_ops(R"("name": "x", "export": {"value": "register"})"),
       "program: 'export' needs 'metric'"},
      {with_ops(R"("name": "x", "export": {"metric": "m", "register": 3})"),
       "program: 'export.register' names register 3 but the program only "
       "writes registers 0..0"},
      {with_ops(R"("name": "x", "digest": {"every": 0})"),
       "program: 'digest.every' must be a positive integer"},
      {with_ops(R"("name": "x", "digest": {"register": 0})"),
       "program: 'digest' needs 'every'"},
      {with_ops(R"("name": "x", "digest": {"every": 4, "z": 0})"),
       "program: 'digest.z' is not a known digest key"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(compile_error(text), expected) << text;
  }
  // A caller-supplied path prefixes every key.
  EXPECT_EQ(compile_error(with_ops(R"("name": "x", "bogus": 1)"),
                          "switches[1].programs[0]"),
            "program: 'switches[1].programs[0].bogus' is not a known "
            "program key");
  EXPECT_EQ(compile_error(R"({"name": "x"})", "programs[2]"),
            "program: 'programs[2]' needs at least one op");
}

}  // namespace
}  // namespace p4s
