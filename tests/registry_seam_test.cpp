// The extension seams an out-of-tree measurement stage plugs into,
// exercised from outside the telemetry/controlplane libraries exactly
// the way the program VM uses them:
//
//   * DataPlaneProgram::register_packet_engine() — a custom engine sees
//     every parsed copy and every tracked data packet, and the
//     slot-release registry dispatches clear_slot / slot_cleared /
//     pending_digests to it like any built-in stage.
//   * ControlPlane::register_extractor() — an extension metric gets its
//     own timer, per-metric configuration through the name-based APIs,
//     and a clean unregister (timer dies, name freed, closures dropped).
//   * ControlPlane::register_digest_source() — extension digests drain
//     through the poll loop into emitted reports.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "telemetry/packet_engine.hpp"

namespace p4s {
namespace {

using core::MonitoringSystem;
using core::MonitoringSystemConfig;
using units::seconds;

// An out-of-tree packet engine: per-slot packet counter plus a digest
// queue, implemented without touching any telemetry-internal header.
class SpyEngine : public telemetry::PacketEngine {
 public:
  std::string_view name() const override { return "spy"; }

  void on_packet(const telemetry::FieldView& view) override {
    ++packets_;
    if (view.egress_copy()) ++egress_copies_;
  }

  void on_tracked_data(std::uint16_t slot,
                       const telemetry::FieldView& view) override {
    ++tracked_;
    counts_[slot] += 1;
    bytes_[slot] += view.ipv4_total_len();
    ++pending_digests_;
  }

  void clear_slot(std::uint16_t slot) override {
    counts_[slot] = 0;
    bytes_[slot] = 0;
    cleared_.push_back(slot);
  }

  bool slot_cleared(std::uint16_t slot) const override {
    return counts_[slot] == 0 && bytes_[slot] == 0;
  }

  std::size_t pending_digests() const override { return pending_digests_; }
  void drain() { pending_digests_ = 0; }

  std::uint64_t packets_ = 0;
  std::uint64_t egress_copies_ = 0;
  std::uint64_t tracked_ = 0;
  std::array<std::uint64_t, telemetry::kFlowSlots> counts_{};
  std::array<std::uint64_t, telemetry::kFlowSlots> bytes_{};
  std::vector<std::uint16_t> cleared_;
  std::size_t pending_digests_ = 0;
};

struct Collector : cp::ReportSink {
  std::vector<std::string> lines;
  cp::ReportSink* next = nullptr;
  void on_report(const util::Json& report) override {
    lines.push_back(report.dump());
    if (next != nullptr) next->on_report(report);
  }
  std::size_t count_of(const std::string& metric) const {
    std::size_t n = 0;
    for (const std::string& line : lines) {
      if (line.find("\"report\":\"" + metric + "\"") != std::string::npos) {
        ++n;
      }
    }
    return n;
  }
};

TEST(RegistrySeam, PacketEngineSeesTheStreamAndSlotRelease) {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  MonitoringSystem system(config);
  auto& monitored = system.monitored_switch(0);
  SpyEngine spy;
  monitored.program().register_packet_engine(spy);

  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(seconds(1));
  flow.stop_at(seconds(4));
  // Run well past the idle timeout so the finished flow is finalized
  // and its slot released through the registry.
  system.run_until(seconds(12));

  // The spy saw both TAP copies of the parsed stream...
  EXPECT_GT(spy.packets_, 0u);
  EXPECT_GT(spy.egress_copies_, 0u);
  // ...and the measurement path's tracked packets — the exact stream
  // the built-in byte counter consumed.
  EXPECT_GT(spy.tracked_, 0u);
  std::uint64_t spy_bytes = 0;
  for (const std::uint64_t b : spy.bytes_) spy_bytes += b;
  EXPECT_EQ(spy_bytes, 0u)
      << "finalization should have cleared every tracked slot";
  // Slot release dispatched clear_slot to the out-of-tree engine, and
  // the registry's invariant holds for it.
  ASSERT_FALSE(spy.cleared_.empty());
  for (const std::uint16_t slot : spy.cleared_) {
    EXPECT_TRUE(monitored.program().slot_cleared(slot));
  }
}

TEST(RegistrySeam, PendingDigestsAggregatesRegisteredEngines) {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  SpyEngine spy;
  program.register_packet_engine(spy);
  const std::size_t baseline = program.pending_digests();
  spy.pending_digests_ = 3;
  EXPECT_EQ(program.pending_digests(), baseline + 3);
  spy.drain();
  EXPECT_EQ(program.pending_digests(), baseline);
}

struct ExtractorFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  cp::ControlPlaneConfig cp_config;
  cp::ControlPlane control{sim, program, cp_config};
  Collector collector;

  void SetUp() override { control.set_sink(&collector); }

  void register_counter_metric(double sps) {
    cp::ControlPlane::MetricExtractor ex;
    ex.name = "spy_metric";
    ex.value_key = "spy_value";
    ex.read_switch = [this](SimTime) {
      return static_cast<double>(++reads_);
    };
    cp::MetricConfig mc;
    mc.interval = units::seconds_f(1.0 / sps);
    control.register_extractor(std::move(ex), mc);
  }

  std::uint64_t reads_ = 0;
};

TEST_F(ExtractorFixture, ExtensionTimerRunsAtItsOwnRate) {
  register_counter_metric(4);  // 250 ms cadence
  control.start();
  sim.run_until(seconds(1));
  EXPECT_EQ(collector.count_of("spy_metric"), 4u);
  // Per-metric reconfiguration through the name-based API: the builtin
  // metrics keep their own timers. The new cadence starts after the
  // already-scheduled tick (1.25 s), so (1 s, 2 s] holds 8 ticks.
  control.set_samples_per_second("spy_metric", 10);
  const std::size_t before = collector.count_of("spy_metric");
  sim.run_until(seconds(2));
  EXPECT_GE(collector.count_of("spy_metric") - before, 8u);
  EXPECT_THROW(control.set_samples_per_second("spy_nope", 1),
               std::invalid_argument);
}

TEST_F(ExtractorFixture, UnregisterKillsTheTimerAndFreesTheName) {
  register_counter_metric(4);
  const std::size_t live = control.extractor_count();
  control.start();
  sim.run_until(seconds(1));
  const std::size_t emitted = collector.count_of("spy_metric");
  EXPECT_GT(emitted, 0u);

  control.unregister_extractor("spy_metric");
  EXPECT_EQ(control.extractor_count(), live - 1);
  EXPECT_FALSE(control.has_extractor("spy_metric"));
  sim.run_until(seconds(3));
  EXPECT_EQ(collector.count_of("spy_metric"), emitted)
      << "the extension timer kept firing after unregister";

  // The name is reusable; duplicate registration of a live name throws.
  register_counter_metric(2);
  EXPECT_TRUE(control.has_extractor("spy_metric"));
  EXPECT_THROW(register_counter_metric(2), std::invalid_argument);
  // Builtins are not removable; unknown names are reported.
  EXPECT_THROW(control.unregister_extractor("throughput"),
               std::invalid_argument);
  EXPECT_THROW(control.unregister_extractor("never_was"),
               std::invalid_argument);
}

TEST_F(ExtractorFixture, ExtensionAlertsBoostLikeBuiltins) {
  register_counter_metric(2);
  control.set_alert("spy_metric", 3.0, 20.0);  // boost to 20/s on breach
  control.start();
  sim.run_until(seconds(3));
  ASSERT_FALSE(control.alerts().empty());
  EXPECT_EQ(control.alerts()[0].metric_name, "spy_metric");
  // The boosted cadence kicked in: far more than 2/s after the breach.
  EXPECT_GT(collector.count_of("spy_metric"), 10u);
}

TEST_F(ExtractorFixture, DigestSourceDrainsThroughThePollLoop) {
  std::uint64_t drains = 0;
  control.register_digest_source([&drains](SimTime now) {
    std::vector<util::Json> docs;
    if (++drains <= 2) {
      util::Json j = util::Json::object();
      j["report"] = "spy_digest";
      j["ts_ns"] = static_cast<std::int64_t>(now);
      j["n"] = static_cast<std::int64_t>(drains);
      docs.push_back(std::move(j));
    }
    return docs;
  });
  control.start();
  sim.run_until(seconds(1));
  EXPECT_GT(drains, 2u) << "the poll loop never drained the source";
  EXPECT_EQ(collector.count_of("spy_digest"), 2u);
}

}  // namespace
}  // namespace p4s
