// Tests: command-line flag parsing and JSON experiment configuration.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/config_loader.hpp"
#include "util/cli.hpp"

namespace p4s {
namespace {

util::CliArgs parse(std::initializer_list<const char*> argv,
                    const std::vector<std::string>& known,
                    const std::vector<std::string>& switches = {}) {
  std::vector<const char*> full = {"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return util::CliArgs(static_cast<int>(full.size()), full.data(), known,
                       switches);
}

TEST(CliArgs, FlagWithSeparateValue) {
  const auto args = parse({"--rate", "100"}, {"rate"});
  EXPECT_TRUE(args.has("rate"));
  EXPECT_EQ(args.get("rate").value(), "100");
  EXPECT_DOUBLE_EQ(args.number_or("rate", 0), 100.0);
  EXPECT_EQ(args.uint_or("rate", 0), 100u);
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, InlineEqualsValue) {
  const auto args = parse({"--rate=42.5"}, {"rate"});
  EXPECT_DOUBLE_EQ(args.number_or("rate", 0), 42.5);
}

TEST(CliArgs, BareSwitch) {
  const auto args = parse({"--verbose", "--rate", "7"},
                          {"verbose", "rate"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_EQ(args.get("verbose").value(), "");
  EXPECT_EQ(args.uint_or("rate", 0), 7u);
}

TEST(CliArgs, DeclaredSwitchNeverConsumesThePositionalAfterIt) {
  // `p4s-trace replay --max-speed in.pcap` regression: a declared
  // switch must leave the following token positional.
  const auto args =
      parse({"replay", "--max-speed", "in.pcap", "eg.pcap"}, {"rate"},
            {"max-speed"});
  EXPECT_TRUE(args.has("max-speed"));
  EXPECT_EQ(args.get("max-speed").value(), "");
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"replay", "in.pcap", "eg.pcap"}));
  EXPECT_TRUE(args.errors().empty());
}

TEST(CliArgs, UnknownFlagIsError) {
  const auto args = parse({"--tyop", "1"}, {"typo"});
  ASSERT_EQ(args.errors().size(), 1u);
  EXPECT_NE(args.errors()[0].find("--tyop"), std::string::npos);
}

TEST(CliArgs, PositionalCollected) {
  const auto args = parse({"file1", "--rate", "1", "file2"}, {"rate"});
  EXPECT_EQ(args.positional(),
            (std::vector<std::string>{"file1", "file2"}));
}

TEST(CliArgs, MissingAndMalformedNumbersFallBack) {
  const auto args = parse({"--rate", "abc", "--count=1.5", "--bare"},
                          {"rate", "count", "bare", "other"});
  EXPECT_DOUBLE_EQ(args.number_or("rate", 9.5), 9.5);
  EXPECT_EQ(args.uint_or("count", 3), 3u);
  EXPECT_EQ(args.uint_or("other", 3), 3u);
  EXPECT_EQ(args.uint_or("bare", 5), 5u);
  EXPECT_EQ(args.get_or("other", "dflt"), "dflt");
  // A malformed value is an error, named by its flag; an absent flag or
  // one without a value is not.
  EXPECT_EQ(args.errors(),
            (std::vector<std::string>{"malformed value for --rate: 'abc'",
                                      "malformed value for --count: '1.5'"}));
}

TEST(CliArgs, SwitchFollowedByFlagDoesNotConsumeIt) {
  const auto args = parse({"--verbose", "--rate", "5"},
                          {"verbose", "rate"});
  EXPECT_EQ(args.get("verbose").value(), "");
  EXPECT_EQ(args.uint_or("rate", 0), 5u);
}

// ---------- config loader ----------

TEST(ConfigLoader, FullDocument) {
  const auto config = core::config_from_text(R"({
    "seed": 7,
    "tap_latency_us": 2,
    "topology": {"bottleneck_mbps": 500, "access_mbps": 2000,
                 "rtt_ms": [10, 20, 30],
                 "core_buffer_bdp_of_rtt_ms": 10},
    "program": {"promotion_kb": 50, "burst_threshold_us": 800,
                "int_sample_every": 64, "iat_min_gap_ms": 5},
    "control": {"flow_idle_timeout_s": 4, "digest_poll_ms": 20}
  })");
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.tap_latency, units::microseconds(2));
  EXPECT_EQ(config.topology.bottleneck_bps, units::mbps(500));
  EXPECT_EQ(config.topology.access_bps, units::mbps(2000));
  EXPECT_EQ(config.topology.rtt[0], units::milliseconds(10));
  EXPECT_EQ(config.topology.rtt[2], units::milliseconds(30));
  EXPECT_EQ(config.topology.core_buffer_bytes,
            units::bdp_bytes(units::mbps(500), units::milliseconds(10)));
  EXPECT_EQ(config.program.tracker.promotion_bytes, 50u * 1024);
  EXPECT_EQ(config.program.queue.burst_threshold_ns,
            units::microseconds(800));
  EXPECT_EQ(config.program.queue.burst_exit_ns, units::microseconds(400));
  EXPECT_TRUE(config.program.int_export.enabled);
  EXPECT_EQ(config.program.int_export.sample_every, 64u);
  EXPECT_EQ(config.program.iat.min_gap_ns, units::milliseconds(5));
  EXPECT_EQ(config.control.flow_idle_timeout, units::seconds(4));
  EXPECT_EQ(config.control.digest_poll_interval, units::milliseconds(20));
}

TEST(ConfigLoader, EmptyDocumentKeepsDefaults) {
  const auto config = core::config_from_text("{}");
  core::MonitoringSystemConfig defaults;
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_EQ(config.topology.bottleneck_bps,
            defaults.topology.bottleneck_bps);
}

TEST(ConfigLoader, IntSampleEveryZeroDisables) {
  const auto config = core::config_from_text(
      R"({"program": {"int_sample_every": 0}})");
  EXPECT_FALSE(config.program.int_export.enabled);
}

TEST(ConfigLoader, RejectsUnknownKeys) {
  EXPECT_THROW(core::config_from_text(R"({"sede": 1})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"topology": {"bottleneck_gbps": 1}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"program": {"bogus": 1}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"control": {"bogus": 1}})"),
               std::invalid_argument);
}

TEST(ConfigLoader, RejectsIllTypedValues) {
  EXPECT_THROW(core::config_from_text(R"({"seed": "seven"})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"topology": {"rtt_ms": [1, 2]}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"topology": 5})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text("[]"), std::invalid_argument);
}

TEST(ConfigLoader, MalformedJsonThrowsJsonError) {
  EXPECT_THROW(core::config_from_text("{nope"), util::JsonError);
}

TEST(ConfigLoader, DeeplyNestedJsonThrowsJsonError) {
  // 100 KB of '[' used to overflow the parser's stack (SIGSEGV).
  EXPECT_THROW(core::config_from_text(std::string(100000, '[')),
               util::JsonError);
}

TEST(ConfigLoader, TransportSection) {
  const auto config = core::config_from_text(R"({
    "transport": {
      "resilient": true,
      "latency_us": 250,
      "send_buffer_kb": 64,
      "drain_kbps": 800,
      "max_chunk_bytes": 512,
      "random_chunking": false,
      "queue_capacity": 100,
      "ack_timeout_ms": 150,
      "retry_base_ms": 5,
      "retry_max_ms": 2000,
      "health_interval_s": 2,
      "faults": [
        {"at_s": 3, "kind": "reset"},
        {"at_s": 5, "kind": "stall", "duration_s": 0.8}
      ]
    }
  })");
  EXPECT_TRUE(config.transport.resilient);
  EXPECT_EQ(config.transport.channel.latency, units::microseconds(250));
  EXPECT_EQ(config.transport.channel.send_buffer_bytes, 64u * 1024);
  EXPECT_EQ(config.transport.channel.drain_bps, 800'000u);
  EXPECT_EQ(config.transport.channel.max_chunk_bytes, 512u);
  EXPECT_FALSE(config.transport.channel.random_chunking);
  EXPECT_EQ(config.transport.sink.queue_capacity, 100u);
  EXPECT_EQ(config.transport.sink.ack_timeout, units::milliseconds(150));
  EXPECT_EQ(config.transport.sink.backoff.base, units::milliseconds(5));
  EXPECT_EQ(config.transport.sink.backoff.max, units::seconds(2));
  EXPECT_EQ(config.transport.sink.health_interval, units::seconds(2));
  ASSERT_EQ(config.transport.faults.size(), 2u);
  EXPECT_EQ(config.transport.faults[0].at, units::seconds(3));
  EXPECT_EQ(config.transport.faults[0].kind,
            net::FaultInjector::FaultKind::kReset);
  EXPECT_EQ(config.transport.faults[1].kind,
            net::FaultInjector::FaultKind::kStall);
  EXPECT_EQ(config.transport.faults[1].duration,
            units::milliseconds(800));
}

TEST(ConfigLoader, TraceSection) {
  const auto config = core::config_from_text(R"({
    "trace": {
      "capture": true,
      "path_base": "/tmp/run1",
      "snaplen": 256
    }
  })");
  EXPECT_TRUE(config.trace.capture);
  EXPECT_EQ(config.trace.path_base, "/tmp/run1");
  EXPECT_EQ(config.trace.snaplen, 256u);
  // Defaults: capture off, full snaplen.
  const auto defaults = core::config_from_text("{}");
  EXPECT_FALSE(defaults.trace.capture);
  EXPECT_EQ(defaults.trace.snaplen, trace::kDefaultSnaplen);
}

TEST(ConfigLoader, TraceRejectsBadValues) {
  EXPECT_THROW(core::config_from_text(R"({"trace": {"capture": 1}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"trace": {"path_base": 3}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"trace": {"snaplen": "big"}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"trace": {"nope": true}})"),
               std::invalid_argument);
}

TEST(ConfigLoader, TransportRejectsBadFaults) {
  // Faults without the resilient wire have nothing to act on.
  EXPECT_THROW(core::config_from_text(
                   R"({"transport": {"faults": [{"at_s": 1}]}})"),
               std::invalid_argument);
  // A stall needs a positive duration.
  EXPECT_THROW(core::config_from_text(
                   R"({"transport": {"resilient": true, "faults":
                       [{"at_s": 1, "kind": "stall"}]}})"),
               std::invalid_argument);
  // Unknown fault kind / key / missing at_s all fail.
  EXPECT_THROW(core::config_from_text(
                   R"({"transport": {"resilient": true, "faults":
                       [{"at_s": 1, "kind": "flood"}]}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"transport": {"resilient": true, "faults":
                       [{"kind": "reset"}]}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"transport": {"resilient": "yes"}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"transport": {"bogus": 1}})"),
               std::invalid_argument);
}

TEST(ConfigLoader, TransportConfigBuildsResilientSystem) {
  const auto config = core::config_from_text(R"({
    "topology": {"bottleneck_mbps": 100},
    "control": {"flow_idle_timeout_s": 1},
    "transport": {"resilient": true,
                  "faults": [{"at_s": 2, "kind": "reset"}]}
  })");
  core::MonitoringSystem system(config);
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 1");
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(3));
  system.run_until(units::seconds(6));
  EXPECT_TRUE(system.resilient_transport());
  EXPECT_EQ(system.fault_injector().resets_injected(), 1u);
  EXPECT_EQ(system.report_sink().reconnects(), 1u);
  EXPECT_GT(system.psonar().archiver().total_docs(), 0u);
}

TEST(ConfigLoader, SwitchesSection) {
  const auto config = core::config_from_text(R"({
    "switches": [
      {"id": "site-a"},
      {"id": "site-b", "tap": "wan_ext1"}
    ]
  })");
  ASSERT_EQ(config.switches.size(), 2u);
  EXPECT_EQ(config.switches[0].id, "site-a");
  EXPECT_EQ(config.switches[0].tap, core::TapPoint::kCoreBottleneck);
  EXPECT_EQ(config.switches[1].id, "site-b");
  EXPECT_EQ(config.switches[1].tap, core::TapPoint::kWanExt1);
  // Default: no explicit switches (MonitoringSystem builds one untagged).
  EXPECT_TRUE(core::config_from_text("{}").switches.empty());
  EXPECT_EQ(core::config_from_text("{}").parallel, 1u);
}

// The object form of "switches" carries the parallel-execution knob next
// to the site list: {"parallel": N, "sites": [...]}. parallel=1 runs no
// worker thread; the bare-array legacy shape stays accepted above.
TEST(ConfigLoader, SwitchesObjectFormWithParallelKnob) {
  const auto config = core::config_from_text(R"({
    "switches": {
      "parallel": 4,
      "sites": [
        {"id": "site-a"},
        {"id": "site-b", "tap": "wan_ext2"}
      ]
    }
  })");
  EXPECT_EQ(config.parallel, 4u);
  ASSERT_EQ(config.switches.size(), 2u);
  EXPECT_EQ(config.switches[0].id, "site-a");
  EXPECT_EQ(config.switches[1].tap, core::TapPoint::kWanExt2);

  // parallel alone (default sites) and sites alone (default serial).
  EXPECT_EQ(core::config_from_text(R"({"switches": {"parallel": 8}})")
                .parallel,
            8u);
  const auto sites_only =
      core::config_from_text(R"({"switches": {"sites": [{"id": "x"}]}})");
  EXPECT_EQ(sites_only.parallel, 1u);
  ASSERT_EQ(sites_only.switches.size(), 1u);
}

TEST(ConfigLoader, SwitchesRejectsBadValues) {
  EXPECT_THROW(core::config_from_text(R"({"switches": 7})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"switches": [{"id": 7}]})"),
               std::invalid_argument);
  EXPECT_THROW(
      core::config_from_text(R"({"switches": [{"tap": "nowhere"}]})"),
      std::invalid_argument);
  EXPECT_THROW(
      core::config_from_text(R"({"switches": [{"bogus": true}]})"),
      std::invalid_argument);
  // Object-form validation: parallel must be a positive integer, and
  // unknown keys stay fatal.
  EXPECT_THROW(
      core::config_from_text(R"({"switches": {"parallel": 0}})"),
      std::invalid_argument);
  EXPECT_THROW(
      core::config_from_text(R"({"switches": {"parallel": 2.5}})"),
      std::invalid_argument);
  EXPECT_THROW(
      core::config_from_text(R"({"switches": {"bogus": true}})"),
      std::invalid_argument);
  EXPECT_THROW(
      core::config_from_text(R"({"switches": {"sites": [{"id": 7}]}})"),
      std::invalid_argument);
}

TEST(ConfigLoader, LoadedConfigBuildsWorkingSystem) {
  const auto config = core::config_from_text(R"({
    "topology": {"bottleneck_mbps": 100},
    "control": {"flow_idle_timeout_s": 1}
  })");
  core::MonitoringSystem system(config);
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(3));
  system.run_until(units::seconds(6));
  EXPECT_EQ(system.control_plane().final_reports().size(), 1u);
}

TEST(ConfigLoader, ServingSection) {
  const std::string dir =
      ::testing::TempDir() + "p4s_config_serving_section";
  const std::string archive =
      R"("archive": {"backend": "store", "dir": ")" + dir + R"("})";
  EXPECT_TRUE(core::config_from_text("{" + archive + R"(,
    "serving": {"enabled": true}
  })").serving.enabled);
  // Queries run on the calling thread: 0 is the one reader count.
  EXPECT_TRUE(core::config_from_text("{" + archive + R"(,
    "serving": {"enabled": true, "reader_threads": 0}
  })").serving.enabled);
  EXPECT_THROW(core::config_from_text("{" + archive + R"(,
    "serving": {"enabled": true, "reader_threads": 6}
  })"),
               std::invalid_argument);
  // Defaults: serving is off.
  const auto defaults = core::config_from_text("{}");
  EXPECT_FALSE(defaults.serving.enabled);
}

TEST(ConfigLoader, ServingRejectsBadValues) {
  // Serving rides on the durable store; without it the section is a
  // configuration error, not a silent no-op.
  EXPECT_THROW(core::config_from_text(R"({"serving": {"enabled": true}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"serving": {"enabled": "yes"}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"serving": {"bogus": 1}})"),
               std::invalid_argument);
}

TEST(ConfigLoader, ServingConfigBuildsSystemWithQueryArchiver) {
  const std::string dir =
      ::testing::TempDir() + "p4s_config_serving_system";
  std::filesystem::remove_all(dir);
  const auto config = core::config_from_text(R"({
    "topology": {"bottleneck_mbps": 100},
    "control": {"flow_idle_timeout_s": 1},
    "archive": {"backend": "store", "dir": ")" + dir + R"(",
                "seal_min_docs": 8},
    "serving": {"enabled": true}
  })");
  core::MonitoringSystem system(config);
  ASSERT_TRUE(system.durable_archive());
  ASSERT_TRUE(system.serving());
  system.start();
  auto& flow = system.add_transfer(0);
  flow.start_at(units::milliseconds(100));
  flow.stop_at(units::seconds(3));
  system.run_until(units::seconds(6));

  // The query-only archiver answers queries over what the run archived.
  const ps::Archiver& server = system.store_server();
  const auto agg = server.aggregate("p4sonar-throughput", "throughput_bps");
  EXPECT_GT(agg.count, 0u);
  EXPECT_EQ(agg.count,
            system.psonar().archiver().doc_count("p4sonar-throughput"));
  EXPECT_TRUE(server.latest_value("p4sonar-throughput", "throughput_bps")
                  .has_value());
}

TEST(ConfigLoader, ServingDisabledBuildsNoServer) {
  const std::string dir =
      ::testing::TempDir() + "p4s_config_serving_off";
  std::filesystem::remove_all(dir);
  const auto config = core::config_from_text(R"({
    "archive": {"backend": "store", "dir": ")" + dir + R"("}
  })");
  core::MonitoringSystem system(config);
  EXPECT_TRUE(system.durable_archive());
  EXPECT_FALSE(system.serving());
}

// ---------------------------------------------------------- programs

std::string config_error(const std::string& text) {
  try {
    core::config_from_text(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(ConfigLoader, ProgramsSection) {
  const auto config = core::config_from_text(R"({
    "programs": [
      {"name": "byte_counter", "scope": "flow",
       "ops": [{"op": "add", "dst": 0, "field": "ipv4_total_len"}],
       "export": {"metric": "vm_throughput", "value": "rate_bps",
                  "register": 0, "samples_per_second": 2}}
    ],
    "switches": [
      {"id": "site-a"},
      {"id": "site-b",
       "programs": [{"name": "pkt_count", "scope": "switch",
                     "ops": [{"op": "count", "dst": 0}]}]}
    ]
  })");
  ASSERT_EQ(config.programs.size(), 1u);
  EXPECT_EQ(config.programs[0].name, "byte_counter");
  EXPECT_EQ(config.programs[0].export_spec->metric, "vm_throughput");
  ASSERT_EQ(config.switches.size(), 2u);
  EXPECT_TRUE(config.switches[0].programs.empty());
  ASSERT_EQ(config.switches[1].programs.size(), 1u);
  EXPECT_EQ(config.switches[1].programs[0].name, "pkt_count");
  EXPECT_EQ(config.switches[1].programs[0].scope, mpl::Scope::kSwitch);
}

TEST(ConfigLoader, ProgramDiagnosticsNameTheFullJsonPath) {
  // A bad field in the third op of the second switch's first program is
  // reported by its exact key path.
  const std::string msg = config_error(R"({
    "switches": [
      {"id": "a"},
      {"id": "b", "programs": [
        {"name": "x", "ops": [
          {"op": "count", "dst": 0},
          {"op": "count", "dst": 1},
          {"op": "add", "dst": 2, "field": "bogus_field"}
        ]}
      ]}
    ]
  })");
  EXPECT_NE(msg.find("switches[1].programs[0].ops[2].field"),
            std::string::npos)
      << msg;
  // Top-level programs report under "programs[i]".
  const std::string top = config_error(
      R"({"programs": [{"name": "x", "ops": []}, {"scope": 5}]})");
  EXPECT_NE(top.find("programs["), std::string::npos) << top;
  // And a non-array section is rejected with its own path.
  EXPECT_NE(config_error(R"({"programs": 7})").find("'programs'"),
            std::string::npos);
}

TEST(ConfigLoader, DiagnosticsAreSectionQualified) {
  // Ill-typed leaves name section.key, not the bare key.
  EXPECT_NE(config_error(R"({"transport": {"latency_us": "fast"}})")
                .find("transport.latency_us"),
            std::string::npos);
  EXPECT_NE(config_error(R"({"control": {"digest_poll_ms": []}})")
                .find("control.digest_poll_ms"),
            std::string::npos);
  EXPECT_NE(config_error(R"({"topology": {"bottleneck_mbps": false}})")
                .find("topology.bottleneck_mbps"),
            std::string::npos);
}

TEST(ConfigLoader, ProgramsSectionBuildsWorkingSystem) {
  const auto config = core::config_from_text(R"({
    "topology": {"bottleneck_mbps": 2},
    "programs": [
      {"name": "byte_counter", "scope": "flow",
       "ops": [{"op": "add", "dst": 0, "field": "ipv4_total_len"}],
       "export": {"metric": "vm_throughput", "value": "rate_bps",
                  "register": 0, "samples_per_second": 2}}
    ]
  })");
  core::MonitoringSystem system(config);
  auto& vm = system.monitored_switch(0).program_vm();
  ASSERT_NE(vm.find("byte_counter"), nullptr);
  EXPECT_TRUE(system.monitored_switch(0).control_plane().has_extractor(
      "vm_throughput"));
}

TEST(ConfigLoader, SpinRttAndNidsSections) {
  const auto config = core::config_from_text(R"({
    "telemetry": {
      "spin_rtt": {"slots": 512, "rtt_floor_us": 100,
                   "outlier_factor": 4, "alpha": 0.02},
      "nids": {"max_flows": 1024, "syn_flood_syns": 150,
               "syn_flood_ratio": 5, "port_scan_ports": 30,
               "min_window_packets": 2, "window_ms": 500}
    }
  })");
  ASSERT_TRUE(config.program.spin_rtt.has_value());
  EXPECT_EQ(config.program.spin_rtt->slots, 512u);
  EXPECT_EQ(config.program.spin_rtt->rtt_floor_ns,
            units::microseconds(100));
  EXPECT_DOUBLE_EQ(config.program.spin_rtt->outlier_factor, 4.0);
  EXPECT_DOUBLE_EQ(config.program.spin_rtt->sketch_alpha, 0.02);
  ASSERT_TRUE(config.program.nids.has_value());
  EXPECT_EQ(config.program.nids->max_flows, 1024u);
  EXPECT_EQ(config.program.nids->syn_flood_syns, 150u);
  EXPECT_DOUBLE_EQ(config.program.nids->syn_flood_ratio, 5.0);
  EXPECT_EQ(config.program.nids->port_scan_ports, 30u);
  EXPECT_EQ(config.program.nids->min_window_packets, 2u);
  EXPECT_EQ(config.program.nids->window, units::milliseconds(500));
  // Enabling with an empty object builds the engines with defaults.
  const auto bare = core::config_from_text(
      R"({"telemetry": {"spin_rtt": {}, "nids": {}}})");
  EXPECT_TRUE(bare.program.spin_rtt.has_value());
  EXPECT_TRUE(bare.program.nids.has_value());
  // Absent sections leave the engines off (the golden-pinned default).
  const auto off = core::config_from_text("{}");
  EXPECT_FALSE(off.program.spin_rtt.has_value());
  EXPECT_FALSE(off.program.nids.has_value());
}

TEST(ConfigLoader, SpinRttAndNidsRejectBadValues) {
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"spin_rtt": {"slots": 0}}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"spin_rtt": {"outlier_factor": 1}}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"spin_rtt": {"alpha": 1.5}}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"nids": {"syn_flood_ratio": 0.5}}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"nids": {"max_flows": -1}}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"nids": {"bogus": 1}}})"),
               std::invalid_argument);
}

TEST(ConfigLoader, WorkloadsSection) {
  const auto config = core::config_from_text(R"({
    "workloads": [
      {"kind": "syn_flood", "src": "ext0", "dst": "dtn_int",
       "start_s": 1, "duration_s": 3, "pps": 2000, "port": 443,
       "spoof_count": 64},
      {"kind": "port_scan", "src": "ext1", "dst": "dtn_int",
       "pps": 500, "port": 1, "port_count": 200},
      {"kind": "elephant_mice", "src": "ext2", "dst": "dtn_int",
       "duration_s": 5, "elephants": 3, "elephant_mb": 40,
       "mice_per_second": 10, "mice_kb": 50}
    ]
  })");
  ASSERT_EQ(config.workloads.size(), 3u);
  EXPECT_EQ(config.workloads[0].kind,
            workload::WorkloadSpec::Kind::kSynFlood);
  EXPECT_EQ(config.workloads[0].src, "ext0");
  EXPECT_EQ(config.workloads[0].start, units::seconds(1));
  EXPECT_EQ(config.workloads[0].duration, units::seconds(3));
  EXPECT_DOUBLE_EQ(config.workloads[0].pps, 2000.0);
  EXPECT_EQ(config.workloads[0].port, 443);
  EXPECT_EQ(config.workloads[0].spoof_count, 64u);
  EXPECT_EQ(config.workloads[1].kind,
            workload::WorkloadSpec::Kind::kPortScan);
  EXPECT_EQ(config.workloads[1].port_count, 200u);
  EXPECT_EQ(config.workloads[2].kind,
            workload::WorkloadSpec::Kind::kElephantMice);
  EXPECT_EQ(config.workloads[2].elephants, 3u);
  EXPECT_EQ(config.workloads[2].elephant_bytes, 40'000'000u);
  EXPECT_DOUBLE_EQ(config.workloads[2].mice_per_second, 10.0);
  EXPECT_EQ(config.workloads[2].mice_bytes, 50u * 1024);
}

TEST(ConfigLoader, WorkloadsRejectBadValues) {
  // kind is mandatory and must name a known generator.
  EXPECT_THROW(core::config_from_text(
                   R"({"workloads": [{"src": "ext0"}]})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"workloads": [{"kind": "ddos"}]})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"workloads": {}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"workloads": [{"kind": "syn_flood", "bogus": 1}]})"),
               std::invalid_argument);
}

TEST(ConfigLoader, WorkloadConfigBuildsWorkingSystem) {
  // The declarative path end-to-end: hosts resolved by name, generator
  // started with the system, SYNs visible at the monitored switch.
  const auto config = core::config_from_text(R"({
    "telemetry": {"nids": {"syn_flood_syns": 100, "window_ms": 1000}},
    "workloads": [
      {"kind": "syn_flood", "src": "ext0", "dst": "dtn_int",
       "start_s": 1, "duration_s": 2, "pps": 1000}
    ]
  })");
  core::MonitoringSystem system(config);
  system.start();
  system.run_until(units::seconds(4));
  EXPECT_GT(system.workloads().at(0)->packets_sent(), 500u);
  EXPECT_FALSE(
      system.psonar().archiver().search("p4sonar-nids_alert").empty());
}

TEST(ConfigLoader, WorkloadUnknownHostNameFailsAtLoadTime) {
  // Host names are a fixed topology set — reject them in the loader
  // (with the path) rather than deep inside MonitoringSystem.
  EXPECT_THROW(core::config_from_text(R"({
    "workloads": [{"kind": "syn_flood", "src": "nowhere",
                   "dst": "dtn_int"}]
  })"),
               std::invalid_argument);
  // The programmatic path still throws for unknown names.
  core::MonitoringSystemConfig config;
  workload::WorkloadSpec spec;
  spec.kind = workload::WorkloadSpec::Kind::kSynFlood;
  spec.src = "nowhere";
  spec.dst = "dtn_int";
  config.workloads.push_back(spec);
  EXPECT_THROW(core::MonitoringSystem{config}, std::invalid_argument);
}

// The bounds that keep each converted number's cast defined load; one
// past them is a diagnostic (pinned in DiagnosticTextIsPinned).
TEST(ConfigLoader, RangeBoundsThemselvesLoad) {
  const auto config = core::config_from_text(R"({
    "seed": 0, "tap_latency_us": 0,
    "control": {"flow_idle_timeout_s": 1000000000},
    "workloads": [{"kind": "syn_flood", "port": 65535,
                   "port_count": 4294967295}]})");
  EXPECT_EQ(config.control.flow_idle_timeout,
            units::seconds(1'000'000'000));
  EXPECT_EQ(config.workloads[0].port, 65535);
  EXPECT_EQ(config.workloads[0].port_count, 4294967295u);
}

TEST(ConfigLoader, DiagnosticTextIsPinned) {
  // The exact text of every diagnostic shape the loader produces: JSON
  // path, quoting and wording are part of the CLI's contract.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"([])", "config: document must be an object"},
      {R"({"bogus": 1})", "config: unknown key 'bogus'"},
      {R"({"seed": "x"})", "config: 'seed' must be a number"},
      {R"({"topology": 3})", "config: 'topology' must be an object"},
      {R"({"topology": {"rtt_ms": [1, 2]}})",
       "config: 'topology.rtt_ms' must be an array of 3 numbers"},
      {R"({"topology": {"rtt_ms": [1, 2, "x"]}})",
       "config: 'topology.rtt_ms[2]' must be a number"},
      {R"({"topology": {"warp": 1}})", "config: unknown key 'topology.warp'"},
      {R"({"program": {"promotion_kb": true}})",
       "config: 'program.promotion_kb' must be a number"},
      {R"({"transport": {"resilient": 1}})",
       "config: 'transport.resilient' must be a boolean"},
      {R"({"transport": {"faults": 3}})",
       "config: 'transport.faults' must be an array"},
      {R"({"transport": {"resilient": true, "faults": [3]}})",
       "config: 'transport.faults[0]' must be an object"},
      {R"({"transport": {"resilient": true, "faults": [{"at_s": 1, "kind": "melt"}]}})",
       "config: 'transport.faults[0].kind' must be 'reset' or 'stall'"},
      {R"({"transport": {"resilient": true, "faults": [{"at_s": 1, "kind": 2}]}})",
       "config: 'transport.faults[0].kind' must be a string"},
      {R"({"transport": {"resilient": true, "faults": [{"duration_s": 1}]}})",
       "config: 'transport.faults[0]' needs 'at_s'"},
      {R"({"transport": {"resilient": true, "faults": [{"at_s": 1, "kind": "stall"}]}})",
       "config: 'transport.faults[0]' stall needs a 'duration_s' > 0"},
      {R"({"transport": {"resilient": true, "faults": [{"at_s": 1, "x": 0}]}})",
       "config: unknown key 'transport.faults[0].x'"},
      {R"({"transport": {"faults": [{"at_s": 1}]}})",
       "config: 'transport.faults' requires 'transport.resilient': true "
       "(the legacy direct wire has no fault surface)"},
      {R"({"trace": {"path_base": 3}})",
       "config: 'trace.path_base' must be a string"},
      {R"({"archive": {"backend": "tape"}})",
       "config: 'archive.backend' must be 'memory' or 'store'"},
      // Retired keys fail like any unknown key.
      {R"({"archive": {"hot_fields": 1}})",
       "config: unknown key 'archive.hot_fields'"},
      {R"({"archive": {"time_field": "t"}})",
       "config: unknown key 'archive.time_field'"},
      {R"({"archive": {"rollup_fields": ["a", 2]}})",
       "config: unknown key 'archive.rollup_fields'"},
      {R"({"archive": {"rollup_bucket_s": -60}})",
       "config: unknown key 'archive.rollup_bucket_s'"},
      {R"({"archive": {"backend": "store"}})",
       "config: 'archive.backend': 'store' requires 'archive.dir'"},
      // Segments load once per handle: there is no cache to size.
      {R"({"serving": {"cache_shards": 8}})",
       "config: unknown key 'serving.cache_shards'"},
      {R"({"serving": {"enabled": true}})",
       "config: 'serving.enabled' requires 'archive.backend': 'store'"},
      {R"({"serving": {"reader_threads": 4}})",
       "config: 'serving.reader_threads' must be 0 (queries run on the "
       "calling thread)"},
      {R"({"switches": 3})",
       "config: 'switches' must be an array or an object with 'sites'"},
      {R"({"switches": {"sites": 3}})",
       "config: 'switches' sites must be an array"},
      {R"({"switches": {"parallel": 0}})",
       "config: 'switches.parallel' must be a positive integer"},
      {R"({"switches": {"parallel": 1.5}})",
       "config: 'switches.parallel' must be a positive integer"},
      {R"({"switches": [{"id": 3}]})",
       "config: 'switches[0].id' must be a string"},
      {R"({"switches": [{"tap": "nowhere"}]})",
       "config: 'switches[0].tap': unknown tap point: nowhere"},
      {R"({"switches": [3]})", "config: 'switches[0]' must be an object"},
      {R"({"telemetry": {"flow_table": "hash"}})",
       "config: 'telemetry.flow_table': unknown flow_table kind: hash"},
      {R"({"telemetry": {"flow_table": "cuckoo", "cuckoo": {"ways": 9}}})",
       "config: 'telemetry.cuckoo.ways' must be an integer in 2..8"},
      {R"({"telemetry": {"cuckoo": {"max_kicks": 0}}})",
       "config: 'telemetry.cuckoo.max_kicks' must be a positive integer"},
      {R"({"telemetry": {"cuckoo": {}}})",
       "config: 'telemetry.cuckoo' requires 'telemetry.flow_table': "
       "'cuckoo'"},
      {R"({"telemetry": {"sketch_alpha": 1.5}})",
       "config: 'telemetry.sketch_alpha' must be in (0, 1)"},
      {R"({"telemetry": {"spin_rtt": {"slots": -1}}})",
       "config: 'telemetry.spin_rtt.slots' must be a positive integer"},
      {R"({"telemetry": {"spin_rtt": {"outlier_factor": 1}}})",
       "config: 'telemetry.spin_rtt.outlier_factor' must be > 1"},
      {R"({"telemetry": {"spin_rtt": {"alpha": 0}}})",
       "config: 'telemetry.spin_rtt.alpha' must be in (0, 1)"},
      {R"({"telemetry": {"nids": {"max_flows": 0.5}}})",
       "config: 'telemetry.nids.max_flows' must be a positive integer"},
      {R"({"telemetry": {"nids": {"syn_flood_ratio": 0.5}}})",
       "config: 'telemetry.nids.syn_flood_ratio' must be >= 1"},
      {R"({"telemetry": {"nids": {"window_ms": "x"}}})",
       "config: 'telemetry.nids.window_ms' must be a number"},
      {R"({"telemetry": {"histograms": 3}})",
       "config: 'telemetry.histograms' must be an array"},
      {R"({"telemetry": {"histograms": [{"metric": 3}]}})",
       "config: 'telemetry.histograms[0].metric' must be a string"},
      {R"({"telemetry": {"histograms": [{"metric": "jitter"}]}})",
       "config: 'telemetry.histograms[0].metric': unknown histogram "
       "metric: jitter"},
      {R"({"telemetry": {"histograms": [{"metric": "rtt", "scale": "cubic"}]}})",
       "config: 'telemetry.histograms[0].scale': unknown histogram scale: "
       "cubic"},
      {R"({"telemetry": {"histograms": [{"metric": "rtt", "bins": 0}]}})",
       "config: 'telemetry.histograms[0].bins' must be a positive integer"},
      {R"({"telemetry": {"histograms": [{"metric": "rtt", "alpha": 0}]}})",
       "config: 'telemetry.histograms[0].alpha' must be in (0, 1)"},
      {R"({"telemetry": {"histograms": [{"bins": 4}]}})",
       "config: 'telemetry.histograms[0]' needs 'metric'"},
      {R"({"telemetry": {"histograms": [{"metric": "rtt", "min_us": 10, "max_ms": 0.001}]}})",
       "config: 'telemetry.histograms[0]' bin range must satisfy 0 < min < "
       "max"},
      {R"({"workloads": 3})", "config: 'workloads' must be an array"},
      {R"({"workloads": [{"kind": "ddos"}]})",
       "config: 'workloads[0].kind': unknown workload kind: ddos"},
      {R"({"workloads": [{"kind": "syn_flood", "src": "mars"}]})",
       "config: 'workloads[0].src': unknown host 'mars' (dtn_int, "
       "psonar_int, ext0..2, psonar_ext0..2)"},
      {R"({"workloads": [{"kind": "syn_flood", "dst": 4}]})",
       "config: 'workloads[0].dst' must be a string"},
      {R"({"workloads": [{"kind": "syn_flood", "spoof_count": 0}]})",
       "config: 'workloads[0].spoof_count' must be >= 1"},
      {R"({"workloads": [{"src": "ext0"}]})",
       "config: 'workloads[0]' needs 'kind'"},
      {R"({"programs": 7})", "config: 'programs' must be an array"},
      {R"({"programs": [{"name": "x", "ops": [{"op": "warp"}]}]})",
       "config: program: 'programs[0].ops[0].op' unknown op: warp"},
      {R"({"control": {"digest_poll_ms": []}})",
       "config: 'control.digest_poll_ms' must be a number"},
      // Range checks: a negative, fractional or huge value in an
      // untrusted config is a diagnostic, not an undefined cast.
      {R"({"seed": -1})", "config: 'seed' must be a non-negative integer"},
      {R"({"seed": 1.5})", "config: 'seed' must be a non-negative integer"},
      {R"({"tap_latency_us": -1})",
       "config: 'tap_latency_us' must be in [0, 1000000000000000]"},
      {R"({"topology": {"bottleneck_mbps": -5}})",
       "config: 'topology.bottleneck_mbps' must be in [0, 1000000000]"},
      {R"({"topology": {"rtt_ms": [1, 2, 1e300]}})",
       "config: 'topology.rtt_ms[2]' must be in [0, 1000000000000]"},
      {R"({"topology": {"core_buffer_bytes": 1e20}})",
       "config: 'topology.core_buffer_bytes' must be a non-negative "
       "integer"},
      {R"({"program": {"promotion_kb": 1e18}})",
       "config: 'program.promotion_kb' must be in [0, 1000000000]"},
      {R"({"program": {"int_sample_every": 5e9}})",
       "config: 'program.int_sample_every' must be in [0, 4294967295]"},
      {R"({"transport": {"drain_kbps": -1}})",
       "config: 'transport.drain_kbps' must be in [0, 1000000000]"},
      {R"({"transport": {"queue_capacity": -3}})",
       "config: 'transport.queue_capacity' must be a non-negative integer"},
      {R"({"transport": {"health_interval_s": 1e10}})",
       "config: 'transport.health_interval_s' must be in [0, 1000000000]"},
      {R"({"transport": {"resilient": true, "faults": [{"at_s": -1}]}})",
       "config: 'transport.faults[0].at_s' must be in [0, 1000000000]"},
      {R"({"trace": {"snaplen": -1}})",
       "config: 'trace.snaplen' must be a non-negative integer"},
      {R"({"archive": {"wal_batch_docs": -1}})",
       "config: 'archive.wal_batch_docs' must be a non-negative integer"},
      {R"({"serving": {"reader_threads": 1e30}})",
       "config: 'serving.reader_threads' must be a non-negative integer"},
      {R"({"telemetry": {"nids": {"window_ms": 1e13}}})",
       "config: 'telemetry.nids.window_ms' must be in [1, 1000000000000]"},
      {R"({"telemetry": {"spin_rtt": {"rtt_floor_us": -2}}})",
       "config: 'telemetry.spin_rtt.rtt_floor_us' must be in [0, "
       "1000000000000000]"},
      {R"({"workloads": [{"kind": "syn_flood", "port": 70000}]})",
       "config: 'workloads[0].port' must be in [0, 65535]"},
      {R"({"workloads": [{"kind": "syn_flood", "spoof_count": 1e10}]})",
       "config: 'workloads[0].spoof_count' must be in [0, 4294967295]"},
      {R"({"workloads": [{"kind": "elephant_mice", "elephant_mb": -1}]})",
       "config: 'workloads[0].elephant_mb' must be in [0, 1000000000]"},
      {R"({"control": {"digest_poll_ms": -10}})",
       "config: 'control.digest_poll_ms' must be in [0, 1000000000000]"},
  };
  for (const auto& [text, expected] : cases) {
    EXPECT_EQ(config_error(text), expected) << text;
  }
}

}  // namespace
}  // namespace p4s
