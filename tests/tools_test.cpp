// Tests: the extended perfSONAR tool set — traceroute (switch ICMP
// time-exceeded), one-way UDP streams (delay/jitter/loss), pSConfig mesh
// templates, and the MaDDash grid builder.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "psonar/archiver.hpp"
#include "psonar/logstash.hpp"
#include "psonar/maddash.hpp"
#include "psonar/psconfig.hpp"
#include "psonar/pscheduler.hpp"

namespace p4s::ps {
namespace {

struct ToolsFixture : ::testing::Test {
  sim::Simulation sim{5};
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

  std::map<std::string, net::Host*> host_map() {
    return {
        {"psonar-internal", topo.psonar_internal},
        {"psonar-ext1", topo.psonar_ext[0]},
        {"psonar-ext2", topo.psonar_ext[1]},
        {"dtn-internal", topo.dtn_internal},
        {"dtn-ext1", topo.dtn_ext[0]},
    };
  }
};

// ---------- traceroute ----------

TEST_F(ToolsFixture, TracerouteDiscoversBothSwitches) {
  PScheduler::TracerouteTask task;
  task.start = units::seconds(1);
  scheduler.schedule_traceroute(*topo.dtn_internal, *topo.dtn_ext[0], task);
  sim.run_until(units::seconds(10));
  ASSERT_EQ(scheduler.traceroute_results().size(), 1u);
  const auto& r = scheduler.traceroute_results()[0];
  EXPECT_TRUE(r.reached);
  ASSERT_EQ(r.hops.size(), 3u);
  EXPECT_EQ(r.hops[0].addr, net::addrs::kCoreSwitch);
  EXPECT_EQ(r.hops[1].addr, net::addrs::kWanSwitch);
  EXPECT_EQ(r.hops[2].addr, topo.dtn_ext[0]->ip());
  // Hop RTTs must be increasing with path depth.
  EXPECT_LT(r.hops[0].rtt_ms, r.hops[1].rtt_ms);
  EXPECT_LT(r.hops[1].rtt_ms, r.hops[2].rtt_ms);
  // The last hop's RTT is the full 50 ms base path.
  EXPECT_NEAR(r.hops[2].rtt_ms, 50.0, 1.0);
}

TEST_F(ToolsFixture, TracerouteArchivesHops) {
  PScheduler::TracerouteTask task;
  task.start = units::seconds(1);
  scheduler.schedule_traceroute(*topo.psonar_internal, *topo.psonar_ext[1],
                                task);
  sim.run_until(units::seconds(10));
  const auto docs = archiver.search("pscheduler-trace");
  ASSERT_EQ(docs.size(), 1u);
  EXPECT_TRUE(docs[0].at("reached").as_bool());
  EXPECT_EQ(docs[0].at("hops").size(), 3u);
  EXPECT_EQ(docs[0]
                .at("hops")
                .as_array()[0]
                .at("addr")
                .as_string(),
            net::to_string(net::addrs::kCoreSwitch));
}

TEST_F(ToolsFixture, TracerouteMaxHopsWithoutReaching) {
  PScheduler::TracerouteTask task;
  task.start = units::seconds(1);
  task.max_hops = 2;  // stops at the WAN switch
  task.probe_timeout = units::milliseconds(500);
  scheduler.schedule_traceroute(*topo.dtn_internal, *topo.dtn_ext[2], task);
  sim.run_until(units::seconds(10));
  ASSERT_EQ(scheduler.traceroute_results().size(), 1u);
  const auto& r = scheduler.traceroute_results()[0];
  EXPECT_FALSE(r.reached);
  EXPECT_EQ(r.hops.size(), 2u);
}

// ---------- UDP streams ----------

TEST_F(ToolsFixture, UdpStreamMeasuresOneWayDelay) {
  PScheduler::UdpStreamTask task;
  task.start = units::seconds(1);
  task.duration = units::seconds(2);
  task.rate_bps = units::mbps(5);
  scheduler.schedule_udp_stream(*topo.psonar_internal, *topo.psonar_ext[0],
                                task);
  sim.run_until(units::seconds(6));
  ASSERT_EQ(scheduler.udp_stream_results().size(), 1u);
  const auto& r = scheduler.udp_stream_results()[0];
  EXPECT_GT(r.sent, 1000u);
  EXPECT_EQ(r.received, r.sent);  // clean path: nothing lost
  EXPECT_DOUBLE_EQ(r.loss_pct, 0.0);
  // One-way base delay to ext1 is 25 ms (half the 50 ms RTT).
  EXPECT_NEAR(r.mean_owd_ms, 25.0, 1.0);
  EXPECT_LT(r.jitter_ms, 0.5);  // uncongested: tiny jitter
  EXPECT_EQ(archiver.doc_count("pscheduler-latencybg"), 1u);
}

TEST_F(ToolsFixture, UdpStreamSeesInducedLoss) {
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(0.05);
  PScheduler::UdpStreamTask task;
  task.start = units::seconds(1);
  task.duration = units::seconds(2);
  task.rate_bps = units::mbps(5);
  scheduler.schedule_udp_stream(*topo.psonar_internal, *topo.dtn_ext[0],
                                task);
  sim.run_until(units::seconds(6));
  ASSERT_EQ(scheduler.udp_stream_results().size(), 1u);
  const auto& r = scheduler.udp_stream_results()[0];
  EXPECT_NEAR(r.loss_pct, 5.0, 1.5);
}

TEST_F(ToolsFixture, UdpStreamJitterRisesUnderCrossTraffic) {
  // Congest the bottleneck with a TCP flow while the stream runs.
  tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[1], {});
  flow.start_at(units::milliseconds(100));
  PScheduler::UdpStreamTask task;
  task.start = units::seconds(2);
  task.duration = units::seconds(3);
  task.rate_bps = units::mbps(2);
  scheduler.schedule_udp_stream(*topo.psonar_internal, *topo.psonar_ext[1],
                                task);
  sim.run_until(units::seconds(8));
  ASSERT_EQ(scheduler.udp_stream_results().size(), 1u);
  const auto& r = scheduler.udp_stream_results()[0];
  // Queueing inflates both the mean OWD (above the 37.5 ms base) and the
  // jitter.
  EXPECT_GT(r.mean_owd_ms, 38.0);
  EXPECT_GT(r.jitter_ms, 0.01);
}

// ---------- pSConfig mesh ----------

TEST_F(ToolsFixture, MeshSchedulesAllTaskTypes) {
  PsConfig psconfig;
  const char* mesh = R"({
    "tasks": [
      {"type": "latency", "src": "psonar-internal", "dst": "psonar-ext1",
       "start_s": 1, "count": 3},
      {"type": "trace", "src": "psonar-internal", "dst": "psonar-ext2",
       "start_s": 1},
      {"type": "udp_stream", "src": "psonar-internal",
       "dst": "psonar-ext1", "start_s": 1, "duration_s": 1,
       "rate_mbps": 2}
    ]
  })";
  const auto result = psconfig.apply_mesh_text(mesh, scheduler, host_map());
  ASSERT_TRUE(result.ok) << result.message;
  EXPECT_NE(result.message.find("3 tasks"), std::string::npos);
  sim.run_until(units::seconds(12));
  EXPECT_EQ(scheduler.latency_results().size(), 1u);
  EXPECT_EQ(scheduler.traceroute_results().size(), 1u);
  EXPECT_EQ(scheduler.udp_stream_results().size(), 1u);
}

TEST_F(ToolsFixture, MeshRejectsUnknownHostAtomically) {
  PsConfig psconfig;
  const char* mesh = R"({
    "tasks": [
      {"type": "latency", "src": "psonar-internal", "dst": "psonar-ext1"},
      {"type": "latency", "src": "psonar-internal", "dst": "nonexistent"}
    ]
  })";
  const auto result = psconfig.apply_mesh_text(mesh, scheduler, host_map());
  EXPECT_FALSE(result.ok);
  sim.run_until(units::seconds(10));
  // Atomic: the valid first task must NOT have been scheduled either.
  EXPECT_TRUE(scheduler.latency_results().empty());
}

TEST_F(ToolsFixture, MeshRejectsMalformedInput) {
  PsConfig psconfig;
  EXPECT_FALSE(
      psconfig.apply_mesh_text("not json", scheduler, host_map()).ok);
  EXPECT_FALSE(psconfig.apply_mesh_text("{}", scheduler, host_map()).ok);
  EXPECT_FALSE(psconfig
                   .apply_mesh_text(R"({"tasks":[{"type":"warp"}]})",
                                    scheduler, host_map())
                   .ok);
  EXPECT_FALSE(
      psconfig
          .apply_mesh_text(
              R"({"tasks":[{"type":"latency","src":"psonar-internal"}]})",
              scheduler, host_map())
          .ok);
}

TEST_F(ToolsFixture, MeshDiagnosticsNameTheValueAndScheduleNothing) {
  // Each template pairs a valid first task with a bad second one: the
  // diagnostic names the bad value by its JSON path, and — because
  // values are checked before anything is scheduled — the valid task
  // never runs either.
  const std::string good =
      R"({"type": "latency", "src": "psonar-internal",
          "dst": "psonar-ext1", "count": 2})";
  const std::string hosts =
      R"("src": "psonar-internal", "dst": "psonar-ext1")";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {R"({"type": "latency", )" + hosts + R"(, "start_s": -1})",
       "mesh: 'tasks[1].start_s' must be in [0, 1000000000]"},
      {R"({"type": "throughput", )" + hosts + R"(, "duration_s": 1e300})",
       "mesh: 'tasks[1].duration_s' must be in [0, 1000000000]"},
      {R"({"type": "udp_stream", )" + hosts + R"(, "rate_mbps": -10})",
       "mesh: 'tasks[1].rate_mbps' must be in [0, 1000000]"},
      {R"({"type": "latency", )" + hosts + R"(, "count": 1e300})",
       "mesh: 'tasks[1].count' must be in [1, 65535]"},
      {R"({"type": "latency", )" + hosts + R"(, "count": 2.5})",
       "mesh: 'tasks[1].count' must be a positive integer"},
      {R"({"type": "latency", )" + hosts + R"(, "count": "ten"})",
       "mesh: 'tasks[1].count' must be a number"},
      {R"({"type": "trace", )" + hosts + R"(, "max_hops": 1e300})",
       "mesh: 'tasks[1].max_hops' must be in [1, 255]"},
      {R"({"type": "latency", )" + hosts + R"(, "repeat_s": "1"})",
       "mesh: 'tasks[1].repeat_s' must be a number"},
      {R"({"type": "warp", )" + hosts + "}",
       "mesh: 'tasks[1].type' must be throughput, latency, trace or "
       "udp_stream"},
      {R"({"type": "latency", "src": "psonar-internal"})",
       "mesh: 'tasks[1]' needs 'dst'"},
      {R"({"type": 7, )" + hosts + "}",
       "mesh: 'tasks[1].type' must be a string"},
      {R"({"type": "latency", "src": "psonar-internal", "dst": "nowhere"})",
       "mesh: 'tasks[1].dst' unknown host 'nowhere'"},
      {"[]", "mesh: 'tasks[1]' must be an object"},
  };
  PsConfig psconfig;
  for (const auto& [bad, message] : cases) {
    const auto result = psconfig.apply_mesh_text(
        R"({"tasks": [)" + good + ", " + bad + "]}", scheduler, host_map());
    EXPECT_FALSE(result.ok) << bad;
    EXPECT_EQ(result.message, message) << bad;
  }
  EXPECT_EQ(psconfig.apply_mesh_text(R"({"tasks": 3})", scheduler, host_map())
                .message,
            "mesh: 'tasks' must be an array");
  EXPECT_TRUE(psconfig.history().empty());
  sim.run_until(units::seconds(20));
  EXPECT_TRUE(scheduler.latency_results().empty());
  EXPECT_TRUE(scheduler.throughput_results().empty());
  EXPECT_TRUE(scheduler.traceroute_results().empty());
  EXPECT_TRUE(scheduler.udp_stream_results().empty());
}

TEST_F(ToolsFixture, MeshAbsentKeysKeepTheirDefaults) {
  PsConfig psconfig;
  const auto result = psconfig.apply_mesh_text(
      R"({"tasks": [{"type": "latency", "src": "psonar-internal",
                     "dst": "psonar-ext1"}]})",
      scheduler, host_map());
  ASSERT_TRUE(result.ok) << result.message;
  sim.run_until(units::seconds(12));
  ASSERT_EQ(scheduler.latency_results().size(), 1u);
  EXPECT_EQ(scheduler.latency_results()[0].sent, 10);  // default count
  EXPECT_EQ(scheduler.latency_results()[0].start, units::seconds(1));
}

// ---------- MaDDash ----------

TEST_F(ToolsFixture, MadDashGridsFromArchivedResults) {
  // Two latency pairs + one udp stream, then build grids.
  PScheduler::LatencyTask lat;
  lat.start = units::seconds(1);
  lat.count = 4;
  scheduler.schedule_latency(*topo.psonar_internal, *topo.psonar_ext[0],
                             lat);
  scheduler.schedule_latency(*topo.psonar_internal, *topo.psonar_ext[1],
                             lat);
  PScheduler::UdpStreamTask stream;
  stream.start = units::seconds(1);
  stream.duration = units::seconds(1);
  stream.rate_bps = units::mbps(2);
  scheduler.schedule_udp_stream(*topo.psonar_internal, *topo.psonar_ext[0],
                                stream);
  sim.run_until(units::seconds(8));

  MadDash maddash(archiver);
  const auto loss = maddash.loss_grid(1.0, 5.0);
  EXPECT_EQ(loss.rows.size(), 1u);
  EXPECT_EQ(loss.cols.size(), 2u);
  const auto* cell = loss.cell("psonar-internal", "psonar-ext1");
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->status, MadDash::Status::kOk);
  EXPECT_DOUBLE_EQ(cell->value, 0.0);

  const auto owd = maddash.owd_grid(30.0, 60.0);
  const auto* owd_cell = owd.cell("psonar-internal", "psonar-ext1");
  ASSERT_NE(owd_cell, nullptr);
  EXPECT_EQ(owd_cell->status, MadDash::Status::kOk);
  EXPECT_NEAR(owd_cell->value, 25.0, 1.0);

  // Critical classification with a strict threshold.
  const auto strict = maddash.owd_grid(1.0, 2.0);
  EXPECT_EQ(strict.cell("psonar-internal", "psonar-ext1")->status,
            MadDash::Status::kCritical);

  std::ostringstream out;
  MadDash::render(owd, out);
  EXPECT_NE(out.str().find("psonar-ext1"), std::string::npos);
  EXPECT_NE(out.str().find("OK"), std::string::npos);
}

TEST(MadDash, EmptyArchiverRendersNoData) {
  Archiver archiver;
  MadDash maddash(archiver);
  const auto grid = maddash.throughput_grid(1e6, 1e5);
  std::ostringstream out;
  MadDash::render(grid, out);
  EXPECT_NE(out.str().find("(no data)"), std::string::npos);
  EXPECT_EQ(grid.cell("a", "b"), nullptr);
}

TEST(MadDash, LatestDocWinsPerPair) {
  // The grid shows each pair's newest archived result; older documents
  // only bump the sample count.
  auto latency_doc = [](int sent, int received) {
    util::Json j = util::Json::object();
    j["source"] = util::Json("a");
    j["destination"] = util::Json("b");
    j["sent"] = util::Json(sent);
    j["received"] = util::Json(received);
    return j;
  };
  Archiver archiver;
  archiver.index("pscheduler-latency", latency_doc(10, 5));   // 50% loss
  archiver.index("pscheduler-latency", latency_doc(10, 10));  // newest: 0%
  MadDash maddash(archiver);
  const auto grid = maddash.loss_grid(1.0, 5.0);
  const auto* cell = grid.cell("a", "b");
  ASSERT_NE(cell, nullptr);
  EXPECT_DOUBLE_EQ(cell->value, 0.0);
  EXPECT_EQ(cell->status, MadDash::Status::kOk);
  EXPECT_EQ(cell->samples, 2u);
}

TEST(MadDash, StatusNames) {
  EXPECT_STREQ(MadDash::status_name(MadDash::Status::kOk), "OK");
  EXPECT_STREQ(MadDash::status_name(MadDash::Status::kWarn), "WARN");
  EXPECT_STREQ(MadDash::status_name(MadDash::Status::kCritical), "CRIT");
  EXPECT_STREQ(MadDash::status_name(MadDash::Status::kNoData), "-");
}

}  // namespace
}  // namespace p4s::ps
