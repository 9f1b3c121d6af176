// Unit and behaviour tests: perfSONAR emulation — archiver (OpenSearch-
// like queries/aggregations), Logstash pipeline (TCP input plugin,
// filters, Report_v2 metadata), pSConfig's config-P4 command (all of
// Figure 6), and pScheduler's active tests over the simulated topology.
#include <gtest/gtest.h>

#include "controlplane/control_plane.hpp"
#include "net/topology.hpp"
#include "psonar/archiver.hpp"
#include "psonar/logstash.hpp"
#include "psonar/node.hpp"
#include "psonar/psconfig.hpp"
#include "psonar/pscheduler.hpp"
#include "telemetry/dataplane_program.hpp"

namespace p4s::ps {
namespace {

util::Json doc(const char* report, std::int64_t ts, double value) {
  util::Json j = util::Json::object();
  j["report"] = report;
  j["ts_ns"] = ts;
  j["value"] = value;
  return j;
}

// ---------- Archiver ----------

TEST(Archiver, IndexAndCount) {
  Archiver archiver;
  EXPECT_EQ(archiver.index("idx", doc("a", 1, 1.0)), 0u);
  EXPECT_EQ(archiver.index("idx", doc("a", 2, 2.0)), 1u);
  EXPECT_EQ(archiver.doc_count("idx"), 2u);
  EXPECT_EQ(archiver.doc_count("missing"), 0u);
  EXPECT_EQ(archiver.total_docs(), 2u);
  EXPECT_EQ(archiver.indices(), std::vector<std::string>{"idx"});
}

TEST(Archiver, TermQuery) {
  Archiver archiver;
  archiver.index("idx", doc("x", 1, 1.0));
  archiver.index("idx", doc("y", 2, 2.0));
  Archiver::Query q;
  q.terms["report"] = util::Json("x");
  const auto hits = archiver.search("idx", q);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].at("ts_ns").as_int(), 1);
}

TEST(Archiver, DottedPathQuery) {
  Archiver archiver;
  util::Json nested = util::Json::object();
  nested["flow"] = util::JsonObject{{"dst_ip", util::Json("10.1.0.10")}};
  archiver.index("idx", nested);
  Archiver::Query q;
  q.terms["flow.dst_ip"] = util::Json("10.1.0.10");
  EXPECT_EQ(archiver.search("idx", q).size(), 1u);
  q.terms["flow.dst_ip"] = util::Json("10.2.0.10");
  EXPECT_TRUE(archiver.search("idx", q).empty());
}

TEST(Archiver, RangeQuery) {
  Archiver archiver;
  for (int i = 0; i < 10; ++i) archiver.index("idx", doc("a", i, i));
  Archiver::Query q;
  q.range_field = "ts_ns";
  q.range_min = 3;
  q.range_max = 6;
  EXPECT_EQ(archiver.search("idx", q).size(), 4u);
  // Range on a missing field matches nothing.
  q.range_field = "nope";
  EXPECT_TRUE(archiver.search("idx", q).empty());
}

TEST(Archiver, Aggregation) {
  Archiver archiver;
  for (double v : {1.0, 2.0, 3.0, 10.0}) {
    archiver.index("idx", doc("a", 0, v));
  }
  const auto agg = archiver.aggregate("idx", "value");
  EXPECT_EQ(agg.count, 4u);
  EXPECT_DOUBLE_EQ(agg.min, 1.0);
  EXPECT_DOUBLE_EQ(agg.max, 10.0);
  EXPECT_DOUBLE_EQ(agg.sum, 16.0);
  EXPECT_DOUBLE_EQ(agg.avg, 4.0);
}

TEST(Archiver, AggregationRespectsQuery) {
  Archiver archiver;
  archiver.index("idx", doc("x", 0, 5.0));
  archiver.index("idx", doc("y", 0, 100.0));
  Archiver::Query q;
  q.terms["report"] = util::Json("x");
  EXPECT_DOUBLE_EQ(archiver.aggregate("idx", "value", q).avg, 5.0);
}

TEST(Archiver, LimitAndNewestFirst) {
  Archiver archiver;
  for (int i = 0; i < 5; ++i) archiver.index("idx", doc("a", i, i));
  Archiver::Query q;
  q.limit = 2;
  auto hits = archiver.search("idx", q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].at("ts_ns").as_int(), 0);
  EXPECT_EQ(hits[1].at("ts_ns").as_int(), 1);
  // The latest-value idiom: size N sorted descending.
  q.newest_first = true;
  hits = archiver.search("idx", q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].at("ts_ns").as_int(), 4);
  EXPECT_EQ(hits[1].at("ts_ns").as_int(), 3);
}

TEST(Archiver, LimitCountsMatchesNotVisits) {
  Archiver archiver;
  archiver.index("idx", doc("x", 0, 0.0));
  archiver.index("idx", doc("y", 1, 1.0));
  archiver.index("idx", doc("x", 2, 2.0));
  archiver.index("idx", doc("x", 3, 3.0));
  Archiver::Query q;
  q.terms["report"] = util::Json("x");
  q.limit = 2;
  q.newest_first = true;
  const auto hits = archiver.search("idx", q);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].at("ts_ns").as_int(), 3);
  EXPECT_EQ(hits[1].at("ts_ns").as_int(), 2);
}

TEST(Archiver, ForEachStopsWhenVisitorReturnsFalse) {
  Archiver archiver;
  for (int i = 0; i < 100; ++i) archiver.index("idx", doc("a", i, i));
  int visited = 0;
  archiver.for_each("idx", {},
                    [&](const util::Json&) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

TEST(Archiver, AggregateOverLatestValueOnly) {
  Archiver archiver;
  for (double v : {1.0, 2.0, 9.0}) archiver.index("idx", doc("a", 0, v));
  Archiver::Query q;
  q.limit = 1;
  q.newest_first = true;
  const auto agg = archiver.aggregate("idx", "value", q);
  EXPECT_EQ(agg.count, 1u);
  EXPECT_DOUBLE_EQ(agg.avg, 9.0);
}

TEST(Archiver, FieldAtResolvesPaths) {
  util::Json nested = util::Json::object();
  nested["a"] = util::JsonObject{{"b", util::Json(7)}};
  EXPECT_EQ(Archiver::field_at(nested, "a.b")->as_int(), 7);
  EXPECT_FALSE(Archiver::field_at(nested, "a.c").has_value());
  EXPECT_FALSE(Archiver::field_at(nested, "a.b.c").has_value());
}

// ---------- Logstash ----------

TEST(Logstash, EventFlowsToIndexedArchive) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.event(doc("throughput", 42, 1e9));
  EXPECT_EQ(archiver.doc_count("p4sonar-throughput"), 1u);
  EXPECT_EQ(logstash.events_in(), 1u);
  EXPECT_EQ(logstash.events_out(), 1u);
}

TEST(Logstash, Report_v2MetadataAdded) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.event(doc("rtt", 123456, 1.0));
  const auto docs = archiver.search("p4sonar-rtt");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_EQ(docs[0].at("@timestamp").as_int(), 123456);
  EXPECT_EQ(docs[0].at("@seq").as_int(), 0);
  EXPECT_EQ(docs[0].at("@pipeline").as_string(), "p4sonar");
}

TEST(Logstash, ToolEventsUsePschedulerPrefix) {
  Archiver archiver;
  Logstash logstash(archiver);
  util::Json d = doc("throughput", 1, 1.0);
  d["tool"] = "iperf3";
  logstash.event(std::move(d));
  EXPECT_EQ(archiver.doc_count("pscheduler-throughput"), 1u);
}

TEST(Logstash, FiltersTransformInOrder) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.add_filter("tag", [](util::Json d) -> std::optional<util::Json> {
    d["tag"] = "first";
    return d;
  });
  logstash.add_filter("retag",
                      [](util::Json d) -> std::optional<util::Json> {
                        d["tag"] = d.at("tag").as_string() + "+second";
                        return d;
                      });
  logstash.event(doc("x", 1, 1.0));
  EXPECT_EQ(archiver.search("p4sonar-x")[0].at("tag").as_string(),
            "first+second");
}

TEST(Logstash, DropFilterDiscards) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.add_filter("drop",
                      [](util::Json d) -> std::optional<util::Json> {
                        if (d.at("report").as_string() == "noise") {
                          return std::nullopt;
                        }
                        return d;
                      });
  logstash.event(doc("noise", 1, 1.0));
  logstash.event(doc("signal", 2, 2.0));
  EXPECT_EQ(logstash.events_dropped(), 1u);
  EXPECT_EQ(archiver.total_docs(), 1u);
}

TEST(Logstash, TcpInputParsesJsonLines) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.tcp_input(
      "{\"report\":\"a\",\"ts_ns\":1}\n{\"report\":\"b\",\"ts_ns\":2}\n");
  EXPECT_EQ(archiver.doc_count("p4sonar-a"), 1u);
  EXPECT_EQ(archiver.doc_count("p4sonar-b"), 1u);
}

TEST(Logstash, TcpInputCountsParseFailures) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.tcp_input("this is not json\n{\"report\":\"ok\",\"ts_ns\":1}\n");
  EXPECT_EQ(logstash.parse_failures(), 1u);
  EXPECT_EQ(archiver.doc_count("p4sonar-ok"), 1u);
}

TEST(Logstash, DeeplyNestedLineIsAParseFailure) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.tcp_input(std::string(100000, '[') +
                     "\n{\"report\":\"ok\",\"ts_ns\":1}\n");
  EXPECT_EQ(logstash.parse_failures(), 1u);
  EXPECT_EQ(archiver.doc_count("p4sonar-ok"), 1u);
}

TEST(Logstash, TcpInputBuffersPartialLineAtEveryByteOffset) {
  // Regression: the seed parsed a trailing fragment immediately and
  // mis-counted it as a _jsonparsefailure. A Report_v1 line split at ANY
  // byte offset must still produce exactly one document.
  const util::Json report = doc("throughput", 123456789, 94.2);
  const std::string line = report.dump() + "\n";
  for (std::size_t i = 0; i <= line.size(); ++i) {
    Archiver archiver;
    Logstash logstash(archiver);
    logstash.tcp_input(std::string_view(line).substr(0, i));
    logstash.tcp_input(std::string_view(line).substr(i));
    EXPECT_EQ(archiver.doc_count("p4sonar-throughput"), 1u)
        << "split at byte " << i;
    EXPECT_EQ(logstash.parse_failures(), 0u) << "split at byte " << i;
    EXPECT_EQ(logstash.lines_in(), 1u) << "split at byte " << i;
    EXPECT_EQ(logstash.pending_partial_bytes(), 0u)
        << "split at byte " << i;
  }
}

TEST(Logstash, TcpInputReassemblesByteAtATime) {
  Archiver archiver;
  Logstash logstash(archiver);
  const std::string payload = doc("a", 1, 1.0).dump() + "\n" +
                              doc("b", 2, 2.0).dump() + "\n";
  for (char c : payload) logstash.tcp_input(std::string_view(&c, 1));
  EXPECT_EQ(archiver.doc_count("p4sonar-a"), 1u);
  EXPECT_EQ(archiver.doc_count("p4sonar-b"), 1u);
  EXPECT_EQ(logstash.parse_failures(), 0u);
  EXPECT_EQ(logstash.bytes_in(), payload.size());
  EXPECT_EQ(logstash.lines_in(), 2u);
  EXPECT_EQ(logstash.pending_partial_bytes(), 0u);
}

TEST(Logstash, TcpResetDiscardsPartialLine) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.tcp_input("{\"report\":\"half");  // fragment, then reset
  EXPECT_GT(logstash.pending_partial_bytes(), 0u);
  logstash.tcp_reset();
  EXPECT_EQ(logstash.pending_partial_bytes(), 0u);
  EXPECT_EQ(logstash.tcp_resets(), 1u);
  // The new connection retransmits the whole line; no corruption.
  logstash.tcp_input("{\"report\":\"half\",\"ts_ns\":1}\n");
  EXPECT_EQ(archiver.doc_count("p4sonar-half"), 1u);
  EXPECT_EQ(logstash.parse_failures(), 0u);
}

TEST(Logstash, DedupsByXmitSeqAndAcksEveryOccurrence) {
  Archiver archiver;
  Logstash logstash(archiver);
  std::vector<std::uint64_t> acks;
  logstash.set_transport_ack([&](std::uint64_t seq) { acks.push_back(seq); });
  util::Json framed = doc("throughput", 1, 5.0);
  framed["@xmit_seq"] = 7;
  const std::string line = framed.dump() + "\n";
  logstash.tcp_input(line);
  logstash.tcp_input(line);  // at-least-once duplicate
  logstash.tcp_input(line);
  EXPECT_EQ(archiver.doc_count("p4sonar-throughput"), 1u);
  EXPECT_EQ(logstash.duplicates_dropped(), 2u);
  // Every occurrence is acked, duplicates included, so the sender can
  // retire the frame even when the first ack's ship was the duplicate.
  EXPECT_EQ(acks, (std::vector<std::uint64_t>{7, 7, 7}));
}

TEST(Logstash, CountersConserveEndToEnd) {
  Archiver archiver;
  Logstash logstash(archiver);
  logstash.add_filter("drop-rtt", [](util::Json d) -> std::optional<util::Json> {
    if (d.at("report").as_string() == "rtt") return std::nullopt;
    return d;
  });
  util::Json dup = doc("throughput", 1, 1.0);
  dup["@xmit_seq"] = 0;
  const std::string dup_line = dup.dump() + "\n";
  std::string payload;
  payload += doc("throughput", 2, 2.0).dump() + "\n";  // archived
  payload += "garbage line\n";                          // parse failure
  payload += dup_line;                                  // archived
  payload += dup_line;                                  // duplicate
  payload += doc("rtt", 3, 3.0).dump() + "\n";          // filter-dropped
  logstash.tcp_input(payload);
  logstash.event(doc("loss", 4, 4.0));  // direct Tools-layer entry

  EXPECT_EQ(logstash.bytes_in(), payload.size());
  EXPECT_EQ(logstash.lines_in(), 5u);
  EXPECT_EQ(logstash.parse_failures(), 1u);
  // lines_in == parse_failures + tcp events; +1 direct event.
  EXPECT_EQ(logstash.events_in(), logstash.lines_in() -
                                      logstash.parse_failures() + 1);
  // events_in == duplicates + filter-dropped + archived.
  EXPECT_EQ(logstash.events_in(), logstash.duplicates_dropped() +
                                      logstash.events_dropped() +
                                      logstash.events_out());
  EXPECT_EQ(logstash.duplicates_dropped(), 1u);
  EXPECT_EQ(logstash.events_dropped(), 1u);
  EXPECT_EQ(logstash.events_out(), archiver.total_docs());
  EXPECT_EQ(archiver.total_docs(), 3u);
}

TEST(LogstashTcpSink, BridgesReportSink) {
  Archiver archiver;
  Logstash logstash(archiver);
  LogstashTcpSink sink(logstash);
  sink.on_report(doc("throughput", 9, 5.0));
  EXPECT_EQ(archiver.doc_count("p4sonar-throughput"), 1u);
}

// ---------- PsConfig / config-P4 ----------

struct PsConfigFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  cp::ControlPlaneConfig cp_config;
  cp::ControlPlane control{sim, program, cp_config};
  PsConfig psconfig{control};
};

TEST_F(PsConfigFixture, Figure6Line1SetsThroughputRate) {
  const auto result = psconfig.execute(
      "psconfig config-P4 --metric throughput --samples_per_second 1");
  EXPECT_TRUE(result.ok) << result.message;
  EXPECT_EQ(control.extractor_config("throughput").interval,
            units::seconds(1));
}

TEST_F(PsConfigFixture, Figure6Line2SetsRttRate) {
  const auto result = psconfig.execute(
      "psconfig config-P4 --metric RTT --samples_per_second 2");
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(control.extractor_config("rtt").interval,
            units::milliseconds(500));
}

TEST_F(PsConfigFixture, Figure6Line3ConfiguresAlertAndBoost) {
  const auto result = psconfig.execute(
      "psconfig config-P4 --metric queue_occupancy --alert --threshold 30 "
      "--samples_per_second 10");
  EXPECT_TRUE(result.ok);
  const auto& mc = control.extractor_config("queue_occupancy");
  EXPECT_TRUE(mc.alert_enabled);
  EXPECT_DOUBLE_EQ(mc.alert_threshold, 30.0);
  EXPECT_EQ(mc.boosted_interval, units::milliseconds(100));
}

TEST_F(PsConfigFixture, NoMetricAppliesToAll) {
  ASSERT_TRUE(
      psconfig.execute("psconfig config-P4 --samples_per_second 4").ok);
  for (std::string_view metric : cp::kPaperMetrics) {
    EXPECT_EQ(control.extractor_config(metric).interval,
              units::milliseconds(250));
  }
}

// One name-based path: no --metric reaches the four paper metrics only,
// and Figure 6's "RTT" is the same row as "rtt".
TEST_F(PsConfigFixture, MetricsAreConfiguredByNameAlone) {
  cp::ControlPlane::MetricExtractor extension;
  extension.name = "volume";
  extension.value_key = "volume_bytes";
  extension.read_switch = [](SimTime) { return 0.0; };
  cp::MetricConfig fallback;
  fallback.interval = units::milliseconds(200);
  control.register_extractor(std::move(extension), fallback);

  ASSERT_TRUE(
      psconfig.execute("psconfig config-P4 --samples_per_second 4").ok);
  EXPECT_EQ(control.extractor_config("rtt").interval,
            units::milliseconds(250));
  EXPECT_EQ(control.extractor_config("volume").interval,
            units::milliseconds(200));

  ASSERT_TRUE(psconfig
                  .execute("psconfig config-P4 --metric RTT "
                           "--samples_per_second 8")
                  .ok);
  EXPECT_EQ(control.extractor_config("rtt").interval,
            units::milliseconds(125));
  ASSERT_TRUE(psconfig
                  .execute("psconfig config-P4 --metric rtt "
                           "--samples_per_second 5")
                  .ok);
  EXPECT_EQ(control.extractor_config("rtt").interval,
            units::milliseconds(200));
  const auto unknown = psconfig.execute(
      "psconfig config-P4 --metric bogus --samples_per_second 1");
  EXPECT_FALSE(unknown.ok);
  EXPECT_EQ(unknown.message, "config-P4: unknown metric: bogus");
}

TEST_F(PsConfigFixture, RejectsMalformedCommands) {
  EXPECT_FALSE(psconfig.execute("").ok);
  EXPECT_FALSE(psconfig.execute("psconfig").ok);
  EXPECT_FALSE(psconfig.execute("notpsconfig config-P4").ok);
  EXPECT_FALSE(psconfig.execute("psconfig unknown-command").ok);
  EXPECT_FALSE(psconfig.execute("psconfig config-P4").ok);  // nothing to do
  EXPECT_FALSE(psconfig.execute("psconfig config-P4 --metric bogus "
                                "--samples_per_second 1")
                   .ok);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --samples_per_second").ok);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --samples_per_second zero").ok);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --samples_per_second -3").ok);
  // std::from_chars accepts "nan"/"inf", so they need explicit rejection.
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --samples_per_second nan").ok);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --samples_per_second inf").ok);
  EXPECT_FALSE(psconfig
                   .execute("psconfig config-P4 --alert --threshold nan "
                            "--samples_per_second 1")
                   .ok);
  EXPECT_FALSE(psconfig
                   .execute("psconfig config-P4 --alert --threshold -1 "
                            "--samples_per_second 1")
                   .ok);
  EXPECT_FALSE(psconfig.execute("psconfig config-P4 --alert").ok);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --metric rtt --frobnicate 1").ok);
}

// ---------- config-P4 over a multi-switch fabric ----------

struct PsConfigFabricFixture : ::testing::Test {
  sim::Simulation sim;
  telemetry::DataPlaneProgram program_a;
  telemetry::DataPlaneProgram program_b;
  cp::ControlPlaneConfig cp_config;
  cp::ControlPlane site_a{sim, program_a, cp_config};
  cp::ControlPlane site_b{sim, program_b, cp_config};
  PsConfig psconfig;

  void SetUp() override {
    psconfig.add_control_plane(site_a, "site-a");
    psconfig.add_control_plane(site_b, "site-b");
  }
};

TEST_F(PsConfigFabricFixture, DefaultTargetsEverySwitch) {
  ASSERT_TRUE(psconfig
                  .execute("psconfig config-P4 --metric rtt "
                           "--samples_per_second 4")
                  .ok);
  EXPECT_EQ(site_a.extractor_config("rtt").interval,
            units::milliseconds(250));
  EXPECT_EQ(site_b.extractor_config("rtt").interval,
            units::milliseconds(250));
}

TEST_F(PsConfigFabricFixture, SwitchFlagTargetsOneSiteById) {
  ASSERT_TRUE(psconfig
                  .execute("psconfig config-P4 --switch site-b --metric rtt "
                           "--samples_per_second 8")
                  .ok);
  EXPECT_NE(site_a.extractor_config("rtt").interval,
            units::milliseconds(125));
  EXPECT_EQ(site_b.extractor_config("rtt").interval,
            units::milliseconds(125));
}

TEST_F(PsConfigFabricFixture, SwitchFlagAcceptsZeroBasedIndex) {
  ASSERT_TRUE(psconfig
                  .execute("psconfig config-P4 --switch 0 --metric rtt "
                           "--samples_per_second 8")
                  .ok);
  EXPECT_EQ(site_a.extractor_config("rtt").interval,
            units::milliseconds(125));
  EXPECT_NE(site_b.extractor_config("rtt").interval,
            units::milliseconds(125));
}

TEST_F(PsConfigFabricFixture, UnknownSwitchFails) {
  const auto result = psconfig.execute(
      "psconfig config-P4 --switch nowhere --samples_per_second 1");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("unknown switch"), std::string::npos);
  EXPECT_FALSE(
      psconfig.execute("psconfig config-P4 --switch --samples_per_second 1")
          .ok);
}

TEST_F(PsConfigFixture, HistoryRecordsSuccessesOnly) {
  psconfig.execute("psconfig config-P4 --samples_per_second 1");
  psconfig.execute("psconfig config-P4 --bogus");
  ASSERT_EQ(psconfig.history().size(), 1u);
  EXPECT_NE(psconfig.history()[0].find("--samples_per_second"),
            std::string::npos);
}

TEST(PsConfig, UnattachedFailsGracefully) {
  PsConfig psconfig;
  const auto result =
      psconfig.execute("psconfig config-P4 --samples_per_second 1");
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.message.find("control plane"), std::string::npos);
}

// ---------- PScheduler over the topology ----------

struct SchedulerFixture : ::testing::Test {
  sim::Simulation sim{11};
  net::Network network{sim};
  net::PaperTopology topo;
  Archiver archiver;
  Logstash logstash{archiver};
  PScheduler scheduler{sim, logstash};

  void SetUp() override {
    net::PaperTopologyConfig config;
    config.bottleneck_bps = units::mbps(200);
    topo = net::make_paper_topology(network, config);
  }
};

TEST_F(SchedulerFixture, ThroughputTestReportsAverageOnly) {
  PScheduler::ThroughputTask task;
  task.start = units::seconds(1);
  task.duration = units::seconds(5);
  scheduler.schedule_throughput(*topo.psonar_internal, *topo.psonar_ext[0],
                                task);
  sim.run_until(units::seconds(12));
  ASSERT_EQ(scheduler.throughput_results().size(), 1u);
  const auto& r = scheduler.throughput_results()[0];
  EXPECT_GT(r.avg_throughput_bps, 20e6);  // used a 200 Mbps path
  EXPECT_EQ(r.src, "psonar-internal");
  EXPECT_EQ(r.dst, "psonar-ext1");
  // Archived as a single aggregated value (the §2.3 limitation).
  const auto docs = archiver.search("pscheduler-throughput");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_TRUE(docs[0].contains("throughput_bps"));
  EXPECT_FALSE(docs[0].contains("samples"));
}

TEST_F(SchedulerFixture, LatencyTestReportsMinMeanMax) {
  PScheduler::LatencyTask task;
  task.start = units::seconds(1);
  task.count = 5;
  scheduler.schedule_latency(*topo.psonar_internal, *topo.psonar_ext[2],
                             task);
  sim.run_until(units::seconds(10));
  ASSERT_EQ(scheduler.latency_results().size(), 1u);
  const auto& r = scheduler.latency_results()[0];
  EXPECT_EQ(r.sent, 5);
  EXPECT_EQ(r.received, 5);
  // Base RTT to ext3 is 100 ms.
  EXPECT_NEAR(r.min_rtt_ms, 100.0, 1.0);
  EXPECT_NEAR(r.mean_rtt_ms, 100.0, 1.0);
  EXPECT_GE(r.max_rtt_ms, r.min_rtt_ms);
  EXPECT_EQ(archiver.doc_count("pscheduler-latency"), 1u);
}

TEST_F(SchedulerFixture, RepeatingTestRunsMultipleTimes) {
  PScheduler::LatencyTask task;
  task.start = units::seconds(1);
  task.count = 2;
  task.spacing = units::milliseconds(50);
  task.timeout = units::milliseconds(500);
  task.repeat_interval = units::seconds(3);
  scheduler.schedule_latency(*topo.psonar_internal, *topo.psonar_ext[0],
                             task);
  sim.run_until(units::seconds(10));
  EXPECT_GE(scheduler.latency_results().size(), 3u);
}

TEST(PerfSonarNode, BundlesComponents) {
  sim::Simulation sim;
  net::Host host(sim, "ps", net::ipv4(10, 0, 0, 20));
  PerfSonarNode node(sim, host);
  EXPECT_EQ(&node.host(), &host);
  // The TCP sink feeds the node's own Logstash -> archiver.
  util::Json j = util::Json::object();
  j["report"] = "throughput";
  j["ts_ns"] = 1;
  node.report_sink().on_report(j);
  EXPECT_EQ(node.archiver().doc_count("p4sonar-throughput"), 1u);
}

}  // namespace
}  // namespace p4s::ps
