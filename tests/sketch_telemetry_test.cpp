// The sketch subsystem wired into the telemetry stack: cuckoo-mode flow
// tracking (promotion, slot recycling, eviction digests, conservation),
// exact-path survival at 100k offered flows, the switch-wide histogram
// engines in the pipeline, the control-plane histogram extractor, the
// "telemetry" config section, and the trace CLI's --histogram mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "controlplane/control_plane.hpp"
#include "controlplane/engine_exports.hpp"
#include "core/config_loader.hpp"
#include "p4/hash.hpp"
#include "p4/p4_switch.hpp"
#include "telemetry/dataplane_program.hpp"
#include "trace/trace_cli.hpp"

namespace p4s {
namespace {

using telemetry::DataPlaneProgram;
using telemetry::FlowTableKind;
using telemetry::FlowTracker;
using telemetry::HistogramEngineConfig;
using telemetry::kFlowSlots;

const net::Ipv4Address kDst = net::ipv4(10, 1, 0, 10);

net::FiveTuple tuple_of(std::uint32_t i) {
  return net::FiveTuple{
      net::ipv4(10, static_cast<std::uint8_t>(i >> 16),
                static_cast<std::uint8_t>(i >> 8),
                static_cast<std::uint8_t>(i)),
      kDst, static_cast<std::uint16_t>(40000 + (i % 1000)), 5201, 6};
}

FlowTracker::Config cuckoo_config(SimTime idle_age = 0) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;  // first data packet promotes
  config.flow_table = FlowTableKind::kCuckoo;
  config.cuckoo.idle_age = idle_age;
  return config;
}

// ---- FlowTracker in cuckoo mode --------------------------------------

TEST(CuckooTracker, NamesRoundTrip) {
  EXPECT_STREQ(telemetry::to_string(FlowTableKind::kRegisters),
               "registers");
  EXPECT_EQ(telemetry::flow_table_from_name("cuckoo"),
            FlowTableKind::kCuckoo);
  EXPECT_THROW(telemetry::flow_table_from_name("nope"),
               std::invalid_argument);
}

TEST(CuckooTracker, PromotesIntoLowestFreeSlotAndEmitsDigest) {
  FlowTracker tracker(cuckoo_config());
  const auto s0 = tracker.on_data_packet(tuple_of(1), 1000, 100);
  const auto s1 = tracker.on_data_packet(tuple_of(2), 1000, 100);
  ASSERT_TRUE(s0.has_value());
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s0, 0u);  // slots hand out low-first, not hash-scattered
  EXPECT_EQ(*s1, 1u);
  const auto digests = tracker.new_flow_digests().drain();
  ASSERT_EQ(digests.size(), 2u);
  EXPECT_EQ(digests[0].slot, 0u);
  EXPECT_EQ(digests[1].flow.tuple, tuple_of(2));
  // Subsequent packets of a tracked flow hit the table, same slot.
  EXPECT_EQ(tracker.on_data_packet(tuple_of(1), 1000, 200), s0);
  EXPECT_EQ(tracker.slot_of(p4::flow_hash(tuple_of(1))), s0);
  EXPECT_EQ(tracker.active_flows(), 2u);
}

TEST(CuckooTracker, ReleaseRecyclesTheSlot) {
  FlowTracker tracker(cuckoo_config());
  const auto s0 = tracker.on_data_packet(tuple_of(1), 1000, 100);
  ASSERT_TRUE(s0.has_value());
  tracker.release(*s0);
  EXPECT_FALSE(tracker.slot_of(p4::flow_hash(tuple_of(1))).has_value());
  EXPECT_TRUE(tracker.slot_cleared(*s0));
  EXPECT_EQ(tracker.active_flows(), 0u);
  // The recycled slot is handed to the next promotion (LIFO free list).
  const auto s1 = tracker.on_data_packet(tuple_of(2), 1000, 200);
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(*s1, *s0);
}

TEST(CuckooTracker, ExhaustsSlotsThenRejectsWithoutAging) {
  FlowTracker tracker(cuckoo_config(/*idle_age=*/0));
  std::size_t promoted = 0;
  for (std::uint32_t i = 0; i < 3 * kFlowSlots; ++i) {
    if (tracker.on_data_packet(tuple_of(i), 1000, 100 + i).has_value()) {
      ++promoted;
    }
  }
  // Every slot is usable: the cuckoo table fills the full register space
  // (a direct-indexed table at 3x offered load strands slots behind
  // low-bit collisions). Without aging, the rest are rejected cleanly.
  EXPECT_EQ(promoted, kFlowSlots);
  EXPECT_EQ(tracker.active_flows(), kFlowSlots);
  EXPECT_GT(tracker.slot_exhausted(), 0u);
  EXPECT_EQ(tracker.evictions(), 0u);
}

TEST(CuckooTracker, RegistersModeStrandsSlotsCuckooDoesNot) {
  FlowTracker::Config reg_config;
  reg_config.promotion_bytes = 1;
  FlowTracker registers(reg_config);
  FlowTracker cuckoo(cuckoo_config());
  // Offer 1.5x the slot space: birthday collisions strand a sizable
  // fraction of the direct-indexed table.
  for (std::uint32_t i = 0; i < kFlowSlots + kFlowSlots / 2; ++i) {
    registers.on_data_packet(tuple_of(i), 1000, 100);
    cuckoo.on_data_packet(tuple_of(i), 1000, 100);
  }
  // Cuckoo fills to within a handful of slots of the full register
  // space (kick bounds leave a few cells unreachable at this offered
  // load); the direct index strands a large fraction.
  EXPECT_GE(cuckoo.active_flows(), kFlowSlots * 99 / 100);
  EXPECT_LT(registers.active_flows(), kFlowSlots * 95 / 100);
  EXPECT_GT(cuckoo.active_flows(), registers.active_flows());
  EXPECT_GT(registers.slot_collisions(), 0u);
}

TEST(CuckooTracker, EvictionEmitsDigestAndConservesAccounting) {
  FlowTracker tracker(cuckoo_config(/*idle_age=*/units::seconds(1)));
  // Promote past saturation with advancing time: once the table is
  // congested, kick-chain failures evict idle victims.
  SimTime now = units::seconds(1);
  std::size_t promotions = 0;
  for (std::uint32_t i = 0; i < 4 * kFlowSlots; ++i) {
    now += units::milliseconds(2);
    if (tracker.on_data_packet(tuple_of(i), 1000, now).has_value()) {
      ++promotions;
    }
  }
  ASSERT_GT(tracker.evictions(), 0u);
  const auto evicted = tracker.evict_digests().drain();
  ASSERT_EQ(evicted.size(), tracker.evictions());
  std::set<std::uint16_t> evicted_slots;
  for (const auto& d : evicted) {
    EXPECT_TRUE(tracker.occupied(d.slot))
        << "evicted slot must stay occupied until finalized";
    EXPECT_GE(d.idle_ns, units::seconds(1));
    evicted_slots.insert(d.slot);
    // Control-plane behavior: finalize like a FIN.
    tracker.release(d.slot);
  }
  EXPECT_EQ(evicted_slots.size(), evicted.size()) << "duplicate slots";
  // Conservation: every promotion is either still active or finalized.
  EXPECT_EQ(promotions, tracker.active_flows() + evicted.size());
  // Released slots recycle.
  const auto again = tracker.on_data_packet(tuple_of(1 << 20), 1000, now);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(evicted_slots.count(*again), 1u);
}

TEST(CuckooTracker, ReleaseOfEvictedThenRepromotedFlowKeepsNewEpisode) {
  FlowTracker tracker(cuckoo_config(units::seconds(1)));
  SimTime now = units::seconds(1);
  std::size_t target = 0;
  // Drive to the first eviction and remember the victim.
  for (std::uint32_t i = 0; tracker.evictions() == 0; ++i) {
    ASSERT_LT(i, 8 * kFlowSlots) << "no eviction triggered";
    now += units::milliseconds(2);
    tracker.on_data_packet(tuple_of(i), 1000, now);
    target = i;
  }
  (void)target;
  const auto evicted = tracker.evict_digests().drain();
  ASSERT_EQ(evicted.size(), 1u);
  const std::uint16_t old_slot = evicted[0].slot;
  const net::FiveTuple victim_tuple = tracker.identity(old_slot).tuple;
  // The victim keeps sending before the control plane finalizes it: a
  // fresh tracked episode with a NEW slot.
  const auto new_slot = tracker.on_data_packet(victim_tuple, 1000, now + 1);
  ASSERT_TRUE(new_slot.has_value());
  EXPECT_NE(*new_slot, old_slot);
  // Finalizing the old episode must not disturb the new one.
  tracker.release(old_slot);
  EXPECT_EQ(tracker.slot_of(p4::flow_hash(victim_tuple)), new_slot);
  EXPECT_EQ(tracker.on_data_packet(victim_tuple, 1000, now + 2), new_slot);
}

// The acceptance check: at 100k offered flows the cuckoo path's exact
// match keeps every per-slot metric attributable to exactly one flow —
// no cross-flow corruption anywhere.
TEST(CuckooTracker, HundredThousandFlowsKeepExactPathMetricsUncorrupted) {
  constexpr std::uint32_t kOffered = 100'000;
  // 32-bit flow IDs over 100k tuples can collide (~1 pair expected);
  // aliasing by flow_id is inherent to the paper's keying, so the test
  // uses id-unique tuples to isolate the table's own behavior.
  std::vector<net::FiveTuple> tuples;
  std::set<std::uint32_t> ids;
  tuples.reserve(kOffered);
  for (std::uint32_t i = 0; tuples.size() < kOffered; ++i) {
    const net::FiveTuple t = tuple_of(i);
    if (ids.insert(p4::flow_hash(t)).second) tuples.push_back(t);
  }

  DataPlaneProgram::Config config;
  config.tracker = cuckoo_config();
  DataPlaneProgram program(config);
  sim::Simulation sim;
  p4::P4Switch sw(sim, "dut");
  sw.load_program(program);
  sim.run_until(units::milliseconds(1));

  std::map<std::uint32_t, std::uint64_t> sent_bytes;  // flow_id -> bytes
  std::uint16_t ip_id = 0;
  for (std::uint32_t i = 0; i < kOffered; ++i) {
    const net::FiveTuple& t = tuples[i];
    // Per-flow payload varies so cross-attribution cannot cancel out.
    const std::uint32_t payload = 100 + (i % 400);
    for (int rep = 0; rep < 2; ++rep) {
      net::Packet p = net::make_tcp_packet(
          t.src_ip, t.dst_ip, t.src_port, t.dst_port,
          1'000'000 + rep * payload, 0, net::tcpflags::kAck, payload,
          1 << 16);
      p.ip.id = ip_id++;
      sw.on_mirrored(p, net::MirrorPoint::kIngress);
      sent_bytes[p4::flow_hash(t)] += p.ip.total_len;
    }
  }

  const FlowTracker& tracker = program.tracker();
  EXPECT_EQ(tracker.active_flows(), kFlowSlots);
  ASSERT_NE(tracker.cuckoo_table(), nullptr);
  EXPECT_DOUBLE_EQ(tracker.cuckoo_table()->load_factor(), 1.0);
  std::size_t checked = 0;
  for (std::uint32_t slot = 0; slot < kFlowSlots; ++slot) {
    const auto s = static_cast<std::uint16_t>(slot);
    if (!tracker.occupied(s)) continue;
    const auto& ident = tracker.identity(s);
    // Both packets of the owning flow — and nothing else — were counted.
    EXPECT_EQ(program.bytes(s), sent_bytes.at(ident.flow_id))
        << "slot " << slot;
    EXPECT_EQ(program.packets(s), 2u) << "slot " << slot;
    ++checked;
  }
  EXPECT_EQ(checked, kFlowSlots);
}

// ---- Histogram engines in the pipeline -------------------------------

struct HistogramPipeline {
  sim::Simulation sim;
  DataPlaneProgram program;
  p4::P4Switch sw{sim, "dut"};

  static DataPlaneProgram::Config with_histograms() {
    DataPlaneProgram::Config config;
    for (const auto metric : {HistogramEngineConfig::Metric::kRtt,
                              HistogramEngineConfig::Metric::kIat,
                              HistogramEngineConfig::Metric::kQueueDelay}) {
      HistogramEngineConfig hc;
      hc.metric = metric;
      config.histograms.push_back(hc);
    }
    return config;
  }

  HistogramPipeline() : program(with_histograms()) {
    sw.load_program(program);
    sim.run_until(units::milliseconds(1));
  }

  const telemetry::HistogramEngine& engine(std::size_t i) const {
    return *program.engines_of<telemetry::HistogramEngine>().at(i);
  }
};

TEST(HistogramEngines, RegisteredInTheEngineRegistry) {
  HistogramPipeline p;
  ASSERT_EQ(p.program.engines_of<telemetry::HistogramEngine>().size(), 3u);
  EXPECT_EQ(p.engine(0).name(), "rtt_histogram");
  EXPECT_EQ(p.engine(1).name(), "iat_histogram");
  EXPECT_EQ(p.engine(2).name(), "queue_delay_histogram");
  // 7 builtins + 3 histogram engines.
  EXPECT_EQ(p.program.engines().size(), 10u);
  // Slot-free: releasing any slot leaves them trivially cleared.
  p.program.release_slot(5);
  EXPECT_TRUE(p.program.slot_cleared(5));
}

TEST(HistogramEngines, RttMeasuredForUntrackedFlows) {
  HistogramPipeline p;
  // A short flow, far below promotion: the per-flow design never sees
  // it; the switch-wide histogram does.
  const net::Packet data = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 1), kDst, 40001, 5201, 5000, 0,
      net::tcpflags::kAck, 1460, 1 << 16);
  p.sim.at(units::milliseconds(10), [&]() {
    p.sw.on_mirrored(data, net::MirrorPoint::kIngress);
  });
  const net::Packet ack = net::make_tcp_packet(
      kDst, net::ipv4(10, 0, 0, 1), 5201, 40001, 1, 5000 + 1460,
      net::tcpflags::kAck, 0, 1 << 16);
  p.sim.at(units::milliseconds(52), [&]() {
    p.sw.on_mirrored(ack, net::MirrorPoint::kIngress);
  });
  p.sim.run();
  EXPECT_EQ(p.program.tracker().active_flows(), 0u);
  ASSERT_EQ(p.engine(0).samples(), 1u);
  // DDSketch quantile within 1% of the true 42 ms.
  EXPECT_NEAR(p.engine(0).quantile_ns(0.5),
              static_cast<double>(units::milliseconds(42)),
              0.011 * static_cast<double>(units::milliseconds(42)));
  EXPECT_EQ(p.engine(0).histogram().total(), 1u);
}

TEST(HistogramEngines, IatAndQueueDelayObserveEgressPath) {
  HistogramPipeline p;
  net::Packet pkt = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 2), kDst, 40002, 5201, 1000, 0,
      net::tcpflags::kAck, 500, 1 << 16);
  // Two TAP pairs: queue delays 30us and 50us, egress gap 2ms.
  pkt.ip.id = 1;
  const net::Packet first = pkt;
  p.sim.at(units::milliseconds(10), [&]() {
    p.sw.on_mirrored(first, net::MirrorPoint::kIngress);
  });
  p.sim.at(units::milliseconds(10) + units::microseconds(30), [&]() {
    p.sw.on_mirrored(first, net::MirrorPoint::kEgress);
  });
  net::Packet second = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 2), kDst, 40002, 5201, 1500, 0,
      net::tcpflags::kAck, 500, 1 << 16);
  second.ip.id = 2;
  p.sim.at(units::milliseconds(12), [&]() {
    p.sw.on_mirrored(second, net::MirrorPoint::kIngress);
  });
  p.sim.at(units::milliseconds(12) + units::microseconds(80), [&]() {
    p.sw.on_mirrored(second, net::MirrorPoint::kEgress);
  });
  p.sim.run();
  // Queue delay: both TAP pairs observed (30us, 80us). The sketch rank
  // convention is floor(q * (n - 1)), so with two samples only the max
  // rank reaches the larger delay.
  ASSERT_EQ(p.engine(2).samples(), 2u);
  EXPECT_NEAR(p.engine(2).quantile_ns(0.5),
              static_cast<double>(units::microseconds(30)),
              0.011 * static_cast<double>(units::microseconds(30)));
  EXPECT_NEAR(p.engine(2).quantile_ns(1.0),
              static_cast<double>(units::microseconds(80)),
              0.011 * static_cast<double>(units::microseconds(80)));
  // IAT: one gap between the two egress departures (~2ms).
  ASSERT_EQ(p.engine(1).samples(), 1u);
  EXPECT_NEAR(p.engine(1).quantile_ns(0.5),
              static_cast<double>(units::milliseconds(2)),
              0.05 * static_cast<double>(units::milliseconds(2)));
}

// The switch-wide queue-delay sketch against the exact quantiles of the
// delays injected between each TAP pair's ingress and egress copies:
// every pair is matched, and p50/p99 stay within the sketch's relative
// accuracy alpha plus 10% bucket-rounding slack.
TEST(HistogramEngines, QueueDelayQuantilesTrackInjectedDelaysWithinAlpha) {
  constexpr std::size_t kPairs = 20'000;
  constexpr double kAlpha = 0.01;
  DataPlaneProgram::Config config;
  HistogramEngineConfig hc;
  hc.metric = HistogramEngineConfig::Metric::kQueueDelay;
  hc.sketch_alpha = kAlpha;
  config.histograms.push_back(hc);
  DataPlaneProgram program(config);
  sim::Simulation sim;
  p4::P4Switch sw(sim, "dut");
  sw.load_program(program);

  std::mt19937_64 rng(13);
  std::lognormal_distribution<double> delay_dist(std::log(50e3), 0.8);
  std::vector<double> exact;
  exact.reserve(kPairs);
  SimTime t = units::milliseconds(1);
  for (std::size_t i = 0; i < kPairs; ++i) {
    const auto delay = static_cast<SimTime>(std::max(1.0, delay_dist(rng)));
    exact.push_back(static_cast<double>(delay));
    net::Packet pkt = net::make_tcp_packet(
        net::ipv4(10, 0, static_cast<std::uint8_t>(i >> 8),
                  static_cast<std::uint8_t>(i)),
        kDst, 40000, 5201, static_cast<std::uint32_t>(1000 + i), 0,
        net::tcpflags::kAck, 512, 1 << 16);
    pkt.ip.id = static_cast<std::uint16_t>(i + 1);
    sim.at(t, [&sw, pkt]() {
      sw.on_mirrored(pkt, net::MirrorPoint::kIngress);
    });
    sim.at(t + delay, [&sw, pkt]() {
      sw.on_mirrored(pkt, net::MirrorPoint::kEgress);
    });
    t += units::microseconds(10);
  }
  sim.run();

  const auto& engine =
      *program.engines_of<telemetry::HistogramEngine>().at(0);
  EXPECT_EQ(engine.samples(), kPairs);
  std::sort(exact.begin(), exact.end());
  for (const double q : {0.50, 0.99}) {
    const double truth = exact[static_cast<std::size_t>(
        q * static_cast<double>(kPairs - 1))];
    EXPECT_NEAR(engine.quantile_ns(q), truth, 1.10 * kAlpha * truth)
        << "q=" << q;
  }
}

TEST(HistogramEngines, DefaultPipelineHasNone) {
  DataPlaneProgram program;
  EXPECT_TRUE(program.engines_of<telemetry::HistogramEngine>().empty());
  EXPECT_EQ(program.engines().size(), 7u);
}

// ---- Control-plane histogram extractor -------------------------------

struct Collector : cp::ReportSink {
  std::vector<util::Json> docs;
  void on_report(const util::Json& report) override {
    docs.push_back(report);
  }
};

TEST(HistogramExtractor, EmitsSwitchWideReportsWithQuantilesAndBins) {
  sim::Simulation sim;
  DataPlaneProgram program(HistogramPipeline::with_histograms());
  p4::P4Switch sw(sim, "dut");
  sw.load_program(program);
  cp::ControlPlane plane(sim, program, cp::ControlPlaneConfig{});
  cp::register_engine_exports(plane, program);
  EXPECT_EQ(plane.extractor_count(), cp::kPaperMetrics.size() + 3);
  // The name-based configuration seam covers the new extractors.
  plane.set_samples_per_second("rtt_histogram", 2.0);
  EXPECT_THROW(cp::register_engine_exports(plane, program),
               std::invalid_argument);  // duplicates rejected

  Collector collector;
  plane.set_sink(&collector);
  plane.start();
  // One measured RTT sample (untracked flow).
  const net::Packet data = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 3), kDst, 40003, 5201, 9000, 0,
      net::tcpflags::kAck, 1000, 1 << 16);
  sim.at(units::milliseconds(100), [&]() {
    sw.on_mirrored(data, net::MirrorPoint::kIngress);
  });
  const net::Packet ack = net::make_tcp_packet(
      kDst, net::ipv4(10, 0, 0, 3), 5201, 40003, 1, 9000 + 1000,
      net::tcpflags::kAck, 0, 1 << 16);
  sim.at(units::milliseconds(125), [&]() {
    sw.on_mirrored(ack, net::MirrorPoint::kIngress);
  });
  sim.run_until(units::seconds(2));

  const util::Json* rtt_doc = nullptr;
  for (const auto& doc : collector.docs) {
    if (doc.at("report").as_string() == "rtt_histogram" &&
        doc.at("samples").as_int() > 0) {
      rtt_doc = &doc;
    }
  }
  ASSERT_NE(rtt_doc, nullptr) << "no rtt_histogram report emitted";
  EXPECT_FALSE(rtt_doc->contains("flow")) << "switch-wide, not per-flow";
  EXPECT_NEAR(rtt_doc->at("p99_ms").as_double(), 25.0, 0.3);
  EXPECT_NEAR(rtt_doc->at("p50_ms").as_double(), 25.0, 0.3);
  EXPECT_TRUE(rtt_doc->at("p95_ms").is_number());
  EXPECT_EQ(rtt_doc->at("samples").as_int(), 1);
  const util::Json& hist = rtt_doc->at("histogram");
  EXPECT_EQ(hist.at("bins").as_int(), 64);
  EXPECT_EQ(hist.at("counts").size(), 64u);
}

TEST(HistogramExtractor, RegisterExtractorValidatesReadModes) {
  sim::Simulation sim;
  DataPlaneProgram program;
  cp::ControlPlane plane(sim, program, cp::ControlPlaneConfig{});
  cp::ControlPlane::MetricExtractor both;
  both.name = "broken";
  both.read = [](std::uint16_t, cp::ControlPlane::FlowState&, SimTime) {
    return 0.0;
  };
  both.read_switch = [](SimTime) { return 0.0; };
  EXPECT_THROW(plane.register_extractor(std::move(both)),
               std::invalid_argument);
  cp::ControlPlane::MetricExtractor neither;
  neither.name = "broken2";
  EXPECT_THROW(plane.register_extractor(std::move(neither)),
               std::invalid_argument);
}

// ---- Config loader ----------------------------------------------------

TEST(TelemetryConfig, ParsesFlowTableCuckooAndHistograms) {
  const auto config = core::config_from_text(R"({
    "telemetry": {
      "flow_table": "cuckoo",
      "cuckoo": {"ways": 2, "max_kicks": 8, "idle_age_s": 1.5},
      "sketch_alpha": 0.02,
      "histograms": [
        {"metric": "rtt", "scale": "log", "min_us": 100, "max_ms": 500,
         "bins": 32},
        {"metric": "queue_delay", "id": "core", "alpha": 0.005}
      ]
    }
  })");
  EXPECT_EQ(config.program.tracker.flow_table, FlowTableKind::kCuckoo);
  EXPECT_EQ(config.program.tracker.cuckoo.ways, 2u);
  EXPECT_EQ(config.program.tracker.cuckoo.max_kicks, 8u);
  EXPECT_EQ(config.program.tracker.cuckoo.idle_age,
            units::milliseconds(1500));
  ASSERT_EQ(config.program.histograms.size(), 2u);
  const auto& rtt = config.program.histograms[0];
  EXPECT_EQ(rtt.metric, HistogramEngineConfig::Metric::kRtt);
  EXPECT_DOUBLE_EQ(rtt.histogram.min, 100e3);
  EXPECT_DOUBLE_EQ(rtt.histogram.max, 500e6);
  EXPECT_EQ(rtt.histogram.bins, 32u);
  EXPECT_DOUBLE_EQ(rtt.sketch_alpha, 0.02);  // section-wide fallback
  const auto& qd = config.program.histograms[1];
  EXPECT_EQ(qd.metric, HistogramEngineConfig::Metric::kQueueDelay);
  EXPECT_EQ(qd.id, "core");
  EXPECT_DOUBLE_EQ(qd.sketch_alpha, 0.005);  // per-entry override wins
}

TEST(TelemetryConfig, DefaultsStayLegacy) {
  const auto config = core::config_from_text("{}");
  EXPECT_EQ(config.program.tracker.flow_table, FlowTableKind::kRegisters);
  EXPECT_TRUE(config.program.histograms.empty());
}

TEST(TelemetryConfig, RejectsMalformedSections) {
  EXPECT_THROW(
      core::config_from_text(R"({"telemetry": {"flow_table": "btree"}})"),
      std::invalid_argument);
  // cuckoo subsection without selecting the cuckoo table.
  EXPECT_THROW(
      core::config_from_text(R"({"telemetry": {"cuckoo": {"ways": 4}}})"),
      std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"sketch_alpha": 1.5}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"telemetry": {"histograms":
      [{"metric": "nope"}]}})"),
               std::invalid_argument);
  EXPECT_THROW(core::config_from_text(R"({"telemetry": {"histograms":
      [{"scale": "log"}]}})"),
               std::invalid_argument);  // metric required
  EXPECT_THROW(core::config_from_text(R"({"telemetry": {"histograms":
      [{"metric": "rtt", "min_us": 1000, "max_ms": 0.5}]}})"),
               std::invalid_argument);  // min >= max
  EXPECT_THROW(
      core::config_from_text(R"({"telemetry": {"unknown_key": 1}})"),
      std::invalid_argument);
  EXPECT_THROW(core::config_from_text(
                   R"({"telemetry": {"cuckoo": {"ways": 16},
                       "flow_table": "cuckoo"}})"),
               std::invalid_argument);
}

// ---- Trace CLI --histogram -------------------------------------------

int run_cli(std::vector<std::string> argv_strings, std::string* out_text,
            std::string* err_text) {
  std::vector<const char*> argv;
  argv.push_back("p4s-trace");
  for (const auto& s : argv_strings) argv.push_back(s.c_str());
  std::ostringstream out, err;
  const int rc = trace::trace_cli(static_cast<int>(argv.size()),
                                  argv.data(), out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return rc;
}

TEST(TraceCliHistogram, RendersQueueDelayBinsFromTheCommittedCapture) {
  const std::string data = P4S_TRACE_DATA_DIR;
  std::string out, err;
  ASSERT_EQ(run_cli({"stats", data + "/fig9.ingress.pcap",
                     data + "/fig9.egress.pcap", "--histogram",
                     "queue_delay", "--bins", "16"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("queue_delay_histogram: "), std::string::npos) << out;
  EXPECT_NE(out.find("p99: "), std::string::npos);
  EXPECT_NE(out.find("#"), std::string::npos) << "no bars rendered";
}

TEST(TraceCliHistogram, RejectsUnknownMetricAndBadBounds) {
  const std::string data = P4S_TRACE_DATA_DIR;
  std::string out, err;
  EXPECT_EQ(run_cli({"stats", data + "/fig9.ingress.pcap", "--histogram",
                     "bogus"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("unknown histogram metric"), std::string::npos) << err;
  EXPECT_EQ(run_cli({"stats", data + "/fig9.ingress.pcap", "--histogram",
                     "rtt", "--hist-min-us", "0"},
                    &out, &err),
            2);
}

TEST(TraceCliHistogram, BareFlagListsTheAvailableMetrics) {
  const std::string data = P4S_TRACE_DATA_DIR;
  std::string out, err;
  ASSERT_EQ(run_cli({"stats", data + "/fig9.ingress.pcap",
                     data + "/fig9.egress.pcap", "--histogram"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("available histogram metrics"), std::string::npos)
      << out;
  // Every metric the capture can offer is listed with its sample count.
  EXPECT_NE(out.find("rtt_histogram"), std::string::npos) << out;
  EXPECT_NE(out.find("iat_histogram"), std::string::npos) << out;
  EXPECT_NE(out.find("queue_delay_histogram"), std::string::npos) << out;
  EXPECT_NE(out.find("samples"), std::string::npos) << out;
}

TEST(TraceCliHistogram, UnknownMetricErrorCarriesTheListing) {
  const std::string data = P4S_TRACE_DATA_DIR;
  std::string out, err;
  EXPECT_EQ(run_cli({"stats", data + "/fig9.ingress.pcap",
                     data + "/fig9.egress.pcap", "--histogram", "bogus"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("unknown histogram metric"), std::string::npos) << err;
  EXPECT_NE(err.find("available histogram metrics"), std::string::npos)
      << err;
  EXPECT_NE(err.find("queue_delay_histogram"), std::string::npos) << err;
}

}  // namespace
}  // namespace p4s
