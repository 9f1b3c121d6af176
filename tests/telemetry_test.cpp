// Unit tests: data-plane telemetry engines — long-flow tracker (CMS
// promotion, slot collisions, release), Algorithm 1 (RTT + packet loss),
// queue monitor (TAP-pair matching, microburst state machine), limitation
// classifier and IAT monitor.
#include <gtest/gtest.h>

#include "p4/hash.hpp"
#include "telemetry/flow_tracker.hpp"
#include "telemetry/iat_monitor.hpp"
#include "telemetry/limit_classifier.hpp"
#include "telemetry/queue_monitor.hpp"
#include "telemetry/rtt_loss.hpp"

namespace p4s::telemetry {
namespace {

net::FiveTuple tuple(std::uint8_t host = 1) {
  return net::FiveTuple{net::ipv4(10, 0, 0, 1), net::ipv4(10, 1, 0, host),
                        40000, 5201, 6};
}

// ---------- FlowTracker ----------

TEST(FlowTracker, PromotesAfterThreshold) {
  FlowTracker::Config config;
  config.promotion_bytes = 10'000;
  FlowTracker tracker(config);
  const net::FiveTuple t = tuple();
  // 6 packets of 1460: still below 10 kB.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(tracker.on_data_packet(t, 1460, 1000).has_value());
  }
  // The 7th crosses 10 kB -> promotion.
  const auto slot = tracker.on_data_packet(t, 1460, 2000);
  ASSERT_TRUE(slot.has_value());
  EXPECT_TRUE(tracker.occupied(*slot));
  EXPECT_EQ(tracker.active_flows(), 1u);

  const auto digests = tracker.new_flow_digests().drain();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].slot, *slot);
  EXPECT_EQ(digests[0].detected_at, 2000u);
  EXPECT_EQ(digests[0].flow.flow_id, p4::flow_hash(t));
  EXPECT_EQ(digests[0].flow.rev_flow_id, p4::flow_hash(t.reversed()));
  EXPECT_EQ(digests[0].flow.tuple, t);
}

TEST(FlowTracker, SlotIsFlowHashModuloSlots) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;
  FlowTracker tracker(config);
  const net::FiveTuple t = tuple();
  const auto slot = tracker.on_data_packet(t, 1460, 1);
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(*slot, p4::flow_hash(t) & kFlowSlotMask);
}

TEST(FlowTracker, SamePacketKeepsSameSlot) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;
  FlowTracker tracker(config);
  const auto a = tracker.on_data_packet(tuple(), 1460, 1);
  const auto b = tracker.on_data_packet(tuple(), 1460, 2);
  EXPECT_EQ(a, b);
  EXPECT_EQ(tracker.new_flow_digests().drain().size(), 1u);  // one digest
}

TEST(FlowTracker, SlotLookupVerifiesFlowId) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;
  FlowTracker tracker(config);
  tracker.on_data_packet(tuple(), 1460, 1);
  EXPECT_TRUE(tracker.slot_of(p4::flow_hash(tuple())).has_value());
  EXPECT_FALSE(tracker.slot_of(p4::flow_hash(tuple(9))).has_value());
  EXPECT_TRUE(tracker.dp_slot_of(p4::flow_hash(tuple())).has_value());
}

TEST(FlowTracker, ReleaseRecyclesSlot) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;
  FlowTracker tracker(config);
  const auto slot = tracker.on_data_packet(tuple(), 1460, 1);
  ASSERT_TRUE(slot.has_value());
  tracker.release(*slot);
  EXPECT_FALSE(tracker.occupied(*slot));
  EXPECT_EQ(tracker.active_flows(), 0u);
  // A different flow can now take the slot (if it hashes there); at the
  // least, the same flow can re-promote.
  const auto again = tracker.on_data_packet(tuple(), 1460, 2);
  EXPECT_EQ(again, slot);
}

TEST(FlowTracker, CollisionCountedAndIncumbentKept) {
  FlowTracker::Config config;
  config.promotion_bytes = 1;
  FlowTracker tracker(config);
  const net::FiveTuple a = tuple();
  const auto slot_a = tracker.on_data_packet(a, 1460, 1);
  ASSERT_TRUE(slot_a.has_value());

  // Find another tuple hashing to the same slot.
  net::FiveTuple b = a;
  for (std::uint16_t port = 1; port < 65535; ++port) {
    b.src_port = port;
    if ((p4::flow_hash(b) & kFlowSlotMask) == *slot_a &&
        p4::flow_hash(b) != p4::flow_hash(a)) {
      break;
    }
  }
  ASSERT_EQ(p4::flow_hash(b) & kFlowSlotMask, *slot_a);
  EXPECT_FALSE(tracker.on_data_packet(b, 1460, 2).has_value());
  EXPECT_EQ(tracker.slot_collisions(), 1u);
  EXPECT_EQ(tracker.identity(*slot_a).tuple, a);  // incumbent unchanged
}

// ---------- RttLossEngine (Algorithm 1) ----------

struct Alg1Fixture : ::testing::Test {
  RttLossEngine engine;
  const net::FiveTuple data_tuple = tuple();
  const std::uint32_t flow_id = p4::flow_hash(data_tuple);
  const std::uint32_t rev_id = p4::flow_hash(data_tuple.reversed());
  const std::uint16_t slot =
      static_cast<std::uint16_t>(flow_id & kFlowSlotMask);

  bool data(std::uint32_t seq, std::uint32_t payload, SimTime t) {
    return engine.on_data_packet({slot, rev_id, seq, payload}, t);
  }
  std::optional<SimTime> ack(std::uint32_t ackno, SimTime t) {
    // The ACK packet's own flow id is the hash of the reverse tuple.
    return engine.on_ack_packet({rev_id, slot, ackno}, t);
  }
};

TEST_F(Alg1Fixture, InOrderDataNoLoss) {
  EXPECT_FALSE(data(1000, 1460, 10));
  EXPECT_FALSE(data(2460, 1460, 20));
  EXPECT_FALSE(data(3920, 1460, 30));
  EXPECT_EQ(engine.losses(slot), 0u);
}

TEST_F(Alg1Fixture, SequenceRegressionCountsLoss) {
  data(1000, 1460, 10);
  data(2460, 1460, 20);
  EXPECT_TRUE(data(1000, 1460, 30));  // retransmission
  EXPECT_EQ(engine.losses(slot), 1u);
}

TEST_F(Alg1Fixture, EackMatchYieldsExactRtt) {
  // Data packet seq 1000 len 1460 -> eACK 2460, parked at t=100.
  data(1000, 1460, 100);
  const auto rtt = ack(2460, 100 + 52'000'000);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_EQ(*rtt, 52'000'000u);
  EXPECT_EQ(engine.last_rtt(slot), 52'000'000u);
  EXPECT_EQ(engine.eack_matches(), 1u);
}

TEST_F(Alg1Fixture, SampleConsumedOnce) {
  data(1000, 1460, 100);
  ASSERT_TRUE(ack(2460, 200).has_value());
  EXPECT_FALSE(ack(2460, 300).has_value());  // already consumed
  EXPECT_EQ(engine.eack_misses(), 1u);
}

TEST_F(Alg1Fixture, UnmatchedAckMisses) {
  EXPECT_FALSE(ack(999, 100).has_value());
  EXPECT_EQ(engine.eack_misses(), 1u);
  EXPECT_EQ(engine.last_rtt(slot), 0u);
}

TEST_F(Alg1Fixture, ZeroPayloadDataNotParked) {
  data(1000, 0, 100);
  EXPECT_FALSE(ack(1000, 200).has_value());
}

TEST_F(Alg1Fixture, WrapSafeNoFalseLossAcrossWrap) {
  // Sequence numbers crossing 2^32 must not count as regression.
  data(0xFFFFFC00u, 1460, 10);
  EXPECT_FALSE(data(0xFFFFFC00u + 1460, 1460, 20));   // wraps to 0x1B4
  EXPECT_FALSE(data(0xFFFFFC00u + 2920, 1460, 30));   // 0x768, forward
  EXPECT_EQ(engine.losses(slot), 0u);
}

TEST_F(Alg1Fixture, ClearSlotResets) {
  data(1000, 1460, 10);
  data(900, 100, 20);
  engine.clear_slot(slot);
  EXPECT_EQ(engine.losses(slot), 0u);
  EXPECT_EQ(engine.last_rtt(slot), 0u);
  // prev_seq invalidated: old smaller seq is no longer a regression.
  EXPECT_FALSE(data(500, 100, 30));
}

TEST(RttLossEngine, SmallTableEvicts) {
  RttLossEngine engine(16);  // tiny eACK register
  const net::FiveTuple t = tuple();
  const std::uint32_t rev = p4::flow_hash(t.reversed());
  const std::uint16_t slot =
      static_cast<std::uint16_t>(p4::flow_hash(t) & kFlowSlotMask);
  for (std::uint32_t i = 0; i < 64; ++i) {
    engine.on_data_packet({slot, rev, 1000 + i * 1460, 1460}, i);
  }
  EXPECT_GT(engine.eack_evictions(), 0u);
}

// ---------- QueueMonitor ----------

TEST(QueueMonitor, PairMatchingYieldsDelay) {
  QueueMonitor monitor;
  monitor.on_ingress_copy(0xABC, 1'000);
  const auto delay = monitor.on_egress_copy(0xABC, std::uint16_t{5}, 4'000);
  ASSERT_TRUE(delay.has_value());
  EXPECT_EQ(*delay, 3'000u);
  EXPECT_EQ(monitor.last_queue_delay(5), 3'000u);
  EXPECT_EQ(monitor.last_delay_any(), 3'000u);
  EXPECT_EQ(monitor.matched_pairs(), 1u);
}

TEST(QueueMonitor, UnmatchedEgressCounted) {
  QueueMonitor monitor;
  EXPECT_FALSE(monitor.on_egress_copy(0x123, std::nullopt, 10).has_value());
  EXPECT_EQ(monitor.unmatched_egress(), 1u);
}

TEST(QueueMonitor, SignatureMismatchNotMatched) {
  QueueMonitor monitor;
  monitor.on_ingress_copy(0xAAAA0001, 100);
  // Same register index (same low bits) but different signature word.
  const std::uint32_t aliased = 0xBBBB0001 & ~kPacketSigMask;
  EXPECT_FALSE(monitor
                   .on_egress_copy((0xAAAA0001 & kPacketSigMask) | aliased,
                                   std::nullopt, 200)
                   .has_value());
}

TEST(QueueMonitor, UntrackedFlowStillFeedsBurstDetector) {
  QueueMonitor::Config config;
  config.burst_threshold_ns = 1'000;
  config.burst_exit_ns = 500;
  QueueMonitor monitor(config);
  // Timestamp 0 is the empty-cell sentinel; real traffic starts later.
  monitor.on_ingress_copy(1, 100);
  monitor.on_egress_copy(1, std::nullopt, 5'100);  // delay 5000 >= 1000
  EXPECT_TRUE(monitor.burst_active());
}

TEST(QueueMonitor, MicroburstStateMachineWithHysteresis) {
  QueueMonitor::Config config;
  config.burst_threshold_ns = 1'000;
  config.burst_exit_ns = 400;
  QueueMonitor monitor(config);

  auto pkt = [&](std::uint32_t sig, SimTime in, SimTime out) {
    monitor.on_ingress_copy(sig, in);
    monitor.on_egress_copy(sig, std::uint16_t{0}, out);
  };

  pkt(1, 0, 100);        // delay 100: idle
  EXPECT_FALSE(monitor.burst_active());
  pkt(2, 200, 1700);     // delay 1500: burst opens
  EXPECT_TRUE(monitor.burst_active());
  pkt(3, 300, 2100);     // delay 1800: still in burst (peak)
  pkt(4, 2500, 3200);    // delay 700: above exit threshold, stays open
  EXPECT_TRUE(monitor.burst_active());
  pkt(5, 4000, 4300);    // delay 300 <= 400: burst closes
  EXPECT_FALSE(monitor.burst_active());

  const auto digests = monitor.microburst_digests().drain();
  ASSERT_EQ(digests.size(), 1u);
  // Burst began when packet 2 entered the queue: 1700-1500 = 200.
  EXPECT_EQ(digests[0].start_ns, 200u);
  EXPECT_EQ(digests[0].duration_ns, 4300u - 200u);
  EXPECT_EQ(digests[0].peak_queue_delay_ns, 1800u);
  EXPECT_EQ(digests[0].packets_in_burst, 4u);
}

TEST(QueueMonitor, MultipleBurstsReportedSeparately) {
  QueueMonitor::Config config;
  config.burst_threshold_ns = 1'000;
  config.burst_exit_ns = 400;
  QueueMonitor monitor(config);
  auto pkt = [&](std::uint32_t sig, SimTime in, SimTime out) {
    monitor.on_ingress_copy(sig, in);
    monitor.on_egress_copy(sig, std::uint16_t{0}, out);
  };
  pkt(1, 10, 2010);    // open (delay 2000)
  pkt(2, 2100, 2200);  // close (delay 100)
  pkt(3, 3000, 5000);  // open
  pkt(4, 5100, 5200);  // close
  EXPECT_EQ(monitor.microburst_digests().drain().size(), 2u);
}

// ---------- LimitClassifier ----------

struct ClassifierFixture : ::testing::Test {
  LimitClassifier::Config config;
  void init() { classifier = std::make_unique<LimitClassifier>(config); }
  std::unique_ptr<LimitClassifier> classifier;

  ClassifierFixture() {
    config.window_ns = units::milliseconds(100);
    config.network_memory_windows = 2;
  }

  SimTime t = 1;           // advances monotonically across calls
  std::uint32_t seq = 1000;

  /// Simulate a flow with constant flight over several windows.
  void run_stable_flow(std::uint16_t slot, int windows) {
    const std::uint32_t flight = 100'000;
    for (int w = 0; w < windows; ++w) {
      for (int p = 0; p < 20; ++p) {
        classifier->on_data(slot, seq, 1460, t);
        classifier->on_ack(slot, seq + 1460 - flight, t);
        seq += 1460;
        t += units::milliseconds(100) / 20;
      }
    }
  }
};

TEST_F(ClassifierFixture, StableFlightNoLossIsEndpointLimited) {
  init();
  run_stable_flow(1, 4);
  EXPECT_EQ(classifier->verdict(1), LimitVerdict::kEndpointLimited);
  EXPECT_NEAR(static_cast<double>(classifier->flight_bytes(1)), 100'000.0,
              2000.0);
}

TEST_F(ClassifierFixture, LossMakesNetworkLimited) {
  init();
  run_stable_flow(2, 2);
  classifier->on_loss(2);
  run_stable_flow(2, 1);
  EXPECT_EQ(classifier->verdict(2), LimitVerdict::kNetworkLimited);
}

TEST_F(ClassifierFixture, QueueingMakesNetworkLimited) {
  init();
  classifier->on_queue_delay(3, units::milliseconds(5));
  run_stable_flow(3, 2);
  EXPECT_EQ(classifier->verdict(3), LimitVerdict::kNetworkLimited);
}

TEST_F(ClassifierFixture, NetworkVerdictSticksForMemoryWindows) {
  init();
  run_stable_flow(4, 2);
  classifier->on_loss(4);
  run_stable_flow(4, 1);  // window with the loss evaluates -> network
  EXPECT_EQ(classifier->verdict(4), LimitVerdict::kNetworkLimited);
  run_stable_flow(4, 2);  // loss-free, but within memory
  EXPECT_EQ(classifier->verdict(4), LimitVerdict::kNetworkLimited);
  run_stable_flow(4, 3);  // memory (2 windows) exhausted
  EXPECT_EQ(classifier->verdict(4), LimitVerdict::kEndpointLimited);
}

TEST_F(ClassifierFixture, GrowingFlightWithoutLossIsUnknown) {
  init();
  SimTime t = 1;
  std::uint32_t seq = 1000;
  std::uint32_t acked = 500;
  // Flight doubles within each window (slow-start-like probing).
  for (int w = 0; w < 3; ++w) {
    for (int p = 0; p < 30; ++p) {
      classifier->on_data(5, seq, 1460, t);
      classifier->on_ack(5, acked, t);
      seq += 1460;
      acked += 400;  // acks lag: flight grows
      t += units::milliseconds(100) / 30;
    }
  }
  EXPECT_EQ(classifier->verdict(5), LimitVerdict::kUnknown);
}

TEST_F(ClassifierFixture, ClearSlotResets) {
  init();
  run_stable_flow(6, 4);
  classifier->clear_slot(6);
  EXPECT_EQ(classifier->verdict(6), LimitVerdict::kUnknown);
  EXPECT_EQ(classifier->flight_bytes(6), 0u);
}

TEST(LimitVerdict, Names) {
  EXPECT_STREQ(to_string(LimitVerdict::kUnknown), "unknown");
  EXPECT_STREQ(to_string(LimitVerdict::kNetworkLimited), "network");
  EXPECT_STREQ(to_string(LimitVerdict::kEndpointLimited), "endpoint");
}

// ---------- IatMonitor ----------

TEST(IatMonitor, FirstPacketHasNoIat) {
  IatMonitor monitor;
  EXPECT_FALSE(monitor.on_data(0, 1000).has_value());
  EXPECT_TRUE(monitor.on_data(0, 2000).has_value());
}

TEST(IatMonitor, TracksEwma) {
  IatMonitor monitor;
  SimTime t = 0;
  for (int i = 0; i < 50; ++i) {
    monitor.on_data(0, t);
    t += 1'000;
  }
  EXPECT_EQ(monitor.ewma_iat(0), 1'000u);
  EXPECT_EQ(monitor.last_iat(0), 1'000u);
}

TEST(IatMonitor, DetectsBlockageAfterWarmup) {
  IatMonitor::Config config;
  config.warmup_samples = 8;
  config.blockage_factor = 8.0;
  config.min_gap_ns = units::milliseconds(1);
  config.consecutive_gaps = 2;
  IatMonitor monitor(config);
  SimTime t = 0;
  for (int i = 0; i < 20; ++i) {
    monitor.on_data(0, t);
    t += units::microseconds(200);
  }
  EXPECT_FALSE(monitor.blocked(0));
  t += units::milliseconds(50);  // 250x the baseline
  monitor.on_data(0, t);
  // One gap is a congestion stall, not a blockage.
  EXPECT_FALSE(monitor.blocked(0));
  t += units::milliseconds(50);  // the second consecutive gap flags
  monitor.on_data(0, t);
  EXPECT_TRUE(monitor.blocked(0));
  const auto digests = monitor.blockage_digests().drain();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].iat_ns, units::milliseconds(50));
  EXPECT_EQ(digests[0].baseline_iat_ns, units::microseconds(200));
}

TEST(IatMonitor, MinGapFloorSuppressesSmallSpikes) {
  IatMonitor::Config config;
  config.warmup_samples = 4;
  config.min_gap_ns = units::milliseconds(10);
  config.consecutive_gaps = 1;
  IatMonitor monitor(config);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    monitor.on_data(0, t);
    t += units::microseconds(100);
  }
  t += units::milliseconds(2);  // 20x baseline but under the floor
  monitor.on_data(0, t);
  EXPECT_FALSE(monitor.blocked(0));
}

TEST(IatMonitor, SingleStallDoesNotFlagWithConsecutiveRequirement) {
  IatMonitor::Config config;
  config.warmup_samples = 4;
  config.min_gap_ns = units::milliseconds(1);
  config.consecutive_gaps = 2;
  IatMonitor monitor(config);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    monitor.on_data(0, t);
    t += units::microseconds(100);
  }
  // TCP recovery stall: one long gap, then the burst resumes.
  t += units::milliseconds(80);
  monitor.on_data(0, t);
  for (int i = 0; i < 5; ++i) {
    t += units::microseconds(100);
    monitor.on_data(0, t);
  }
  EXPECT_FALSE(monitor.blocked(0));
  EXPECT_EQ(monitor.blockage_digests().drain().size(), 0u);
}

TEST(IatMonitor, NoDetectionDuringWarmup) {
  IatMonitor::Config config;
  config.warmup_samples = 100;
  config.min_gap_ns = 1;
  IatMonitor monitor(config);
  monitor.on_data(0, 0);
  monitor.on_data(0, 100);
  monitor.on_data(0, units::seconds(1));  // massive gap, but cold
  EXPECT_FALSE(monitor.blocked(0));
}

TEST(IatMonitor, RecoveryClearsFlagAndOneDigestPerEpisode) {
  IatMonitor::Config config;
  config.warmup_samples = 4;
  config.min_gap_ns = units::milliseconds(1);
  IatMonitor monitor(config);
  SimTime t = 0;
  for (int i = 0; i < 10; ++i) {
    monitor.on_data(0, t);
    t += units::microseconds(100);
  }
  // Blockage: three huge gaps -> one digest.
  for (int i = 0; i < 3; ++i) {
    t += units::milliseconds(20);
    monitor.on_data(0, t);
  }
  EXPECT_TRUE(monitor.blocked(0));
  EXPECT_EQ(monitor.blockage_digests().drain().size(), 1u);
  // Normal traffic resumes: flag clears; EWMA survived (frozen).
  t += units::microseconds(100);
  monitor.on_data(0, t);
  EXPECT_FALSE(monitor.blocked(0));
  EXPECT_NEAR(static_cast<double>(monitor.ewma_iat(0)),
              static_cast<double>(units::microseconds(100)), 5000.0);
}

TEST(IatMonitor, ClearSlotResets) {
  IatMonitor monitor;
  monitor.on_data(3, 1000);
  monitor.on_data(3, 2000);
  monitor.clear_slot(3);
  EXPECT_EQ(monitor.last_iat(3), 0u);
  EXPECT_EQ(monitor.ewma_iat(3), 0u);
  EXPECT_FALSE(monitor.on_data(3, 5000).has_value());  // first again
}

}  // namespace
}  // namespace p4s::telemetry
