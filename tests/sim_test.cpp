// Unit tests: discrete-event engine (event queue and its lanes, periodic
// scheduling, deterministic PRNG).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "counting_new.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"

namespace p4s::sim {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&]() { order.push_back(3); });
  q.schedule_at(10, [&]() { order.push_back(1); });
  q.schedule_at(20, [&]() { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoForSimultaneousEvents) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i]() { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// The FIFO-within-timestamp contract, pinned: same-deadline events run
// in SCHEDULING order (global seq), not in any order keyed to when
// earlier deadlines interleaved. The parallel fabric's grant semantics
// lean on this — a driver tick armed a full interval before a mirror
// delivery was armed must win their same-timestamp tie — so this is a
// regression fence, not documentation.
TEST(EventQueue, FifoTieBreakIsSchedulingOrderNotDeadlineOrder) {
  EventQueue q;
  std::vector<std::string> order;
  // Armed first, fires at 100: the "tick" (scheduled long in advance).
  q.schedule_at(100, [&]() { order.push_back("tick"); });
  // Armed later (from an earlier event, as a TAP delivery would be),
  // same deadline: must run after the tick despite the fresher arming.
  q.schedule_at(60, [&]() {
    q.schedule_at(100, [&]() { order.push_back("delivery"); });
  });
  // And a third, armed later still at the same deadline.
  q.schedule_at(70, [&]() {
    q.schedule_at(100, [&]() { order.push_back("late-delivery"); });
  });
  q.run();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "tick");
  EXPECT_EQ(order[1], "delivery");
  EXPECT_EQ(order[2], "late-delivery");
}

// FIFO order survives run_until() windows: splitting one run into
// horizon-sized steps (as MonitoringSystem::run_until and the parallel
// grant pump do) must not reorder same-timestamp events scheduled
// across the window boundaries.
TEST(EventQueue, FifoWithinTimestampAcrossRunUntilWindows) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(50, [&]() { order.push_back(0); });
  q.run_until(10);  // clock advances into the gap, nothing runs
  EXPECT_TRUE(order.empty());
  q.schedule_at(50, [&]() { order.push_back(1); });
  q.run_until(30);
  q.schedule_at(50, [&]() { order.push_back(2); });
  // The horizon is inclusive: events at exactly t run in run_until(t).
  q.run_until(50);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.now(), 50u);
}

// run_until() advances the clock to the horizon even with nothing to
// execute — the parallel shards replay boundary frames by advancing an
// (empty) queue to each frame's delivery time, so a lagging clock would
// skew every P4 ingress timestamp and pcap record.
TEST(EventQueue, RunUntilAdvancesClockThroughEmptyWindows) {
  EventQueue q;
  q.run_until(1000);
  EXPECT_EQ(q.now(), 1000u);
  q.run_until(1000);  // idempotent at the same horizon
  EXPECT_EQ(q.now(), 1000u);
  bool ran = false;
  q.schedule_at(2000, [&]() { ran = true; });
  q.run_until(1500);
  EXPECT_EQ(q.now(), 1500u);
  EXPECT_FALSE(ran);
  q.run_until(2000);
  EXPECT_TRUE(ran);
}

TEST(EventQueue, SchedulingIntoPastThrows) {
  EventQueue q;
  q.schedule_at(10, []() {});
  q.run();
  EXPECT_THROW(q.schedule_at(5, []() {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAndAdvancesClock) {
  EventQueue q;
  std::vector<SimTime> fired;
  q.schedule_at(10, [&]() { fired.push_back(10); });
  q.schedule_at(20, [&]() { fired.push_back(20); });
  q.schedule_at(30, [&]() { fired.push_back(30); });
  q.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));  // inclusive horizon
  EXPECT_EQ(q.now(), 20u);
  q.run_until(25);
  EXPECT_EQ(q.now(), 25u);  // clock advances even with no events
  q.run();
  EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&]() {
    order.push_back(1);
    q.schedule_in(5, [&]() { order.push_back(2); });
  });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 15u);
}

TEST(EventQueue, StepExecutesExactlyOne) {
  EventQueue q;
  int runs = 0;
  q.schedule_at(1, [&]() { ++runs; });
  q.schedule_at(2, [&]() { ++runs; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
  EXPECT_EQ(runs, 2);
}

TEST(EventQueue, CountersTrackLiveAndExecuted) {
  EventQueue q;
  q.schedule_at(1, []() {});
  q.schedule_at(2, []() {});
  EXPECT_EQ(q.pending_events(), 2u);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(q.pending_events(), 1u);
  EXPECT_EQ(q.executed_events(), 1u);
  q.run();
  EXPECT_EQ(q.executed_events(), 2u);
  EXPECT_EQ(q.pending_events(), 0u);
}

TEST(EventQueue, RunUntilAdvancesToHorizonWhenDrainedEarly) {
  // Regression for the run_until contract: the clock advances to the
  // horizon even when the last event fires well before it (callers treat
  // run_until(t) as "simulate up to t").
  EventQueue q;
  q.schedule_at(3, []() {});
  q.run_until(50);
  EXPECT_EQ(q.now(), 50u);
  q.run_until(50);  // at the horizon already: no-op
  EXPECT_EQ(q.now(), 50u);
  q.run_until(10);  // horizon in the past: clock never goes backwards
  EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, PeakPendingTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.schedule_at(static_cast<SimTime>(i), []() {});
  EXPECT_EQ(q.peak_pending_events(), 64u);
  q.run();
  q.schedule_at(1000, []() {});
  q.run();
  EXPECT_EQ(q.peak_pending_events(), 64u);  // high-water mark persists
}

TEST(EventQueue, NoPerEventHeapAllocationInSteadyState) {
  // The tentpole guarantee: once the slab/heap vectors have grown to the
  // workload's footprint, scheduling and firing events performs zero heap
  // allocation — no shared_ptr control block per event, and small
  // captures stay in std::function's inline storage.
  EventQueue q;
  std::uint64_t fired = 0;
  // Warm-up: grow the slab/heap past anything the measured phase needs.
  for (int i = 0; i < 1024; ++i) {
    q.schedule_in(1, [&fired]() { ++fired; });
  }
  q.run();
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 512; ++i) {
      q.schedule_in(1, [&fired]() { ++fired; });
    }
    q.run();
  }
  EXPECT_EQ(g_heap_allocs.load(), before);
  EXPECT_EQ(fired, 1024u + 16u * 512u);

  // A timer re-armed on every "ACK" (TCP's RTO pattern) schedules into
  // recycled slots too: its event captures a pointer and a token.
  int expiries = 0;
  Timer rto(q, [&expiries]() { ++expiries; });
  rto.arm(100);
  q.run();
  const std::uint64_t before_rearm = g_heap_allocs.load();
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 512; ++i) {
      rto.arm(static_cast<SimTime>(100 + (i % 7) * 10));
      q.schedule_in(1, [&fired]() { ++fired; });
      q.step();
    }
    q.run();
  }
  EXPECT_EQ(g_heap_allocs.load(), before_rearm);
  EXPECT_EQ(expiries, 17);

  // A lane holding a sliding window of entries, as a link's deliveries
  // do: each firing schedules one more entry 600 ns out, so the lane's
  // FIFO drains chunks at the head while it fills them at the tail.
  std::uint64_t lane_fired = 0;
  std::uint32_t lane = 0;
  lane = q.add_lane([&]() {
    ++lane_fired;
    q.schedule_lane(lane, q.now() + 600);
  });
  const SimTime start = q.now();
  for (SimTime t = 1; t <= 600; ++t) q.schedule_lane(lane, start + t);
  for (int i = 0; i < 5000; ++i) ASSERT_TRUE(q.step());
  const std::uint64_t before_lane = g_heap_allocs.load();
  for (int i = 0; i < 20000; ++i) ASSERT_TRUE(q.step());
  EXPECT_EQ(g_heap_allocs.load(), before_lane);
  EXPECT_EQ(lane_fired, 25000u);
  EXPECT_EQ(q.pending_events(), 600u);
}

// ---------- Lanes: FIFO event streams beside the heap ----------

// A lane's owner keeps what each entry is for; these tests keep a tag
// per entry, consumed in firing order as Link consumes its packets.
struct TaggedLane {
  explicit TaggedLane(EventQueue& queue, std::vector<int>& order)
      : q(queue), out(order) {
    id = q.add_lane([this]() { out.push_back(tags[next++]); });
  }
  void schedule(SimTime at, int tag) {
    tags.push_back(tag);
    q.schedule_lane(id, at);
  }
  EventQueue& q;
  std::vector<int>& out;
  std::vector<int> tags;
  std::size_t next = 0;
  std::uint32_t id = 0;
};

TEST(EventQueueLane, TiesWithHeapEventsFireInSchedulingOrder) {
  // Same timestamp throughout: heap before lane (1, 2), lane before heap
  // (2, 3), and lane entries waiting behind the lane's heap entry (4, 5)
  // against heap events scheduled between and after them (6).
  EventQueue q;
  std::vector<int> order;
  TaggedLane lane(q, order);
  q.schedule_at(10, [&]() { order.push_back(1); });
  lane.schedule(10, 2);
  q.schedule_at(10, [&]() { order.push_back(3); });
  lane.schedule(10, 4);
  lane.schedule(10, 5);
  q.schedule_at(10, [&]() { order.push_back(6); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueueLane, LanesAndHeapFireInOneHeapOrder) {
  // Two lanes with non-decreasing times and heap events at any time fire
  // exactly in (time, seq) order: the order a single heap gives the same
  // schedule calls.
  EventQueue q;
  std::vector<int> order;
  TaggedLane a(q, order);
  TaggedLane b(q, order);
  std::vector<std::pair<SimTime, int>> expected;  // (time, tag) by seq
  Rng rng(7);
  SimTime tail_a = 0, tail_b = 0;
  int tag = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto pick = rng.next_below(3);
    if (pick == 0) {
      tail_a += rng.next_below(4);
      a.schedule(tail_a, tag);
      expected.emplace_back(tail_a, tag);
    } else if (pick == 1) {
      tail_b += rng.next_below(4);
      b.schedule(tail_b, tag);
      expected.emplace_back(tail_b, tag);
    } else {
      const SimTime at = rng.next_below(1501);
      q.schedule_at(at, [&order, tag]() { order.push_back(tag); });
      expected.emplace_back(at, tag);
    }
    ++tag;
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  q.run();
  ASSERT_EQ(order.size(), expected.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_EQ(order[i], expected[i].second) << "at position " << i;
  }
}

TEST(EventQueueLane, EntryEarlierThanTheLaneTailThrows) {
  EventQueue q;
  std::vector<int> order;
  TaggedLane lane(q, order);
  lane.schedule(20, 1);
  EXPECT_THROW(q.schedule_lane(lane.id, 19), std::invalid_argument);
  EXPECT_EQ(q.pending_events(), 1u);  // the refused entry left no trace
  lane.schedule(20, 2);               // equal to the tail is in order
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  // An emptied lane's tail is in the past, which throws as well.
  EXPECT_THROW(q.schedule_lane(lane.id, 10), std::invalid_argument);
}

TEST(EventQueueLane, PendingEventsCountLaneEntries) {
  EventQueue q;
  std::vector<int> order;
  TaggedLane lane(q, order);
  lane.schedule(5, 1);
  lane.schedule(6, 2);
  lane.schedule(7, 3);
  q.schedule_at(6, []() {});
  EXPECT_EQ(q.pending_events(), 4u);
  EXPECT_EQ(q.peak_pending_events(), 4u);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(q.pending_events(), 3u);
  q.run();
  EXPECT_EQ(q.pending_events(), 0u);
  EXPECT_EQ(q.executed_events(), 4u);
  EXPECT_EQ(q.peak_pending_events(), 4u);
}

// ---------- Timer: one moving deadline, at most one live event ----------

TEST(Timer, LaterMovingArmsKeepOneEventAndFireOnceAtLastDeadline) {
  // TCP's RTO pattern: every ACK pushes the deadline further out. The
  // queue holds one event throughout, and only the last deadline fires.
  EventQueue q;
  std::vector<SimTime> expiries;
  Timer t(q, [&]() { expiries.push_back(q.now()); });
  for (SimTime i = 0; i < 10000; ++i) {
    t.arm(100 + i);
    EXPECT_EQ(q.pending_events(), 1u);
  }
  q.run();
  EXPECT_EQ(expiries, (std::vector<SimTime>{100 + 9999}));
  EXPECT_EQ(q.now(), 100u + 9999u);
  EXPECT_EQ(q.executed_events(), 2u);  // the early event, then the deadline
  EXPECT_FALSE(t.armed());
}

TEST(Timer, EarlierMovingArmFiresAtNewDeadlineAndRetiresTheOldEvent) {
  EventQueue q;
  std::vector<SimTime> expiries;
  Timer t(q, [&]() { expiries.push_back(q.now()); });
  t.arm(1000);
  t.arm(50);  // moves earlier: a second event; the first is superseded
  EXPECT_EQ(q.pending_events(), 2u);
  q.run_until(50);
  EXPECT_EQ(expiries, (std::vector<SimTime>{50}));
  EXPECT_FALSE(t.armed());
  // The superseded event still fires at 1000, and does nothing.
  q.run();
  EXPECT_EQ(q.now(), 1000u);
  EXPECT_EQ(expiries, (std::vector<SimTime>{50}));
  EXPECT_EQ(q.executed_events(), 2u);
}

TEST(Timer, DisarmThenRearm) {
  EventQueue q;
  std::vector<SimTime> expiries;
  Timer t(q, [&]() { expiries.push_back(q.now()); });
  t.arm(100);
  t.disarm();
  EXPECT_FALSE(t.armed());
  q.run_until(100);
  EXPECT_TRUE(expiries.empty());  // a disarmed deadline never expires
  t.arm(30);
  EXPECT_TRUE(t.armed());
  q.run();
  EXPECT_EQ(expiries, (std::vector<SimTime>{130}));
  // Disarmed and re-armed later while its event (at 180) is still live:
  // that event carries the timer on to the new deadline.
  t.arm(50);
  t.disarm();
  t.arm(100);
  EXPECT_EQ(q.pending_events(), 1u);
  q.run();
  EXPECT_EQ(expiries, (std::vector<SimTime>{130, 230}));
}

TEST(Timer, RearmFromInsideTheExpiryCallback) {
  // The RTO backoff pattern: the expiry handler retransmits and re-arms.
  EventQueue q;
  std::vector<SimTime> expiries;
  Timer* self = nullptr;
  Timer t(q, [&]() {
    expiries.push_back(q.now());
    if (expiries.size() < 3) self->arm(expiries.size() * 100);
  });
  self = &t;
  t.arm(10);
  q.run();
  EXPECT_EQ(expiries, (std::vector<SimTime>{10, 110, 310}));
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(q.executed_events(), 3u);
}

TEST(Timer, NotArmedWhileTheCallbackRuns) {
  EventQueue q;
  Timer* self = nullptr;
  int calls = 0;
  bool armed_inside = true;
  Timer t(q, [&]() {
    ++calls;
    armed_inside = self->armed();
  });
  self = &t;
  t.arm(5);
  EXPECT_TRUE(t.armed());
  q.run();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(armed_inside);
}

TEST(Simulation, EveryRepeatsUntilFalse) {
  Simulation sim;
  int ticks = 0;
  sim.every(10, 5, [&]() { return ++ticks < 4; });
  sim.run();
  EXPECT_EQ(ticks, 4);
  EXPECT_EQ(sim.now(), 25u);  // 10, 15, 20, 25
}

TEST(Simulation, AfterIsRelative) {
  Simulation sim;
  sim.at(100, [&sim]() {
    sim.after(50, []() {});
  });
  sim.run();
  EXPECT_EQ(sim.now(), 150u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.next_in(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, UniformityChiSquaredCoarse) {
  Rng rng(9);
  int buckets[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++buckets[rng.next_below(10)];
  }
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), n / 10.0, n / 10.0 * 0.1);
  }
}

}  // namespace
}  // namespace p4s::sim
