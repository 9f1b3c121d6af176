// Unit tests: the per-hop queues (util::ChunkedFifo) and a whole
// OutputPort -> Link -> sink hop, with a counting operator new pinning
// that a steady packet stream allocates nothing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>

#include "counting_new.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulation.hpp"
#include "util/chunked_fifo.hpp"

namespace p4s {
namespace {

using util::ChunkedFifo;

// ---------- ChunkedFifo ----------

TEST(ChunkedFifo, KeepsOrderAcrossChunkBoundaries) {
  ChunkedFifo<std::uint64_t> q;
  constexpr std::uint64_t kChunk = ChunkedFifo<std::uint64_t>::kChunkElems;
  std::uint64_t pushed = 0, popped = 0;
  // Depth wanders between 0 and ~3.5 chunks, so head and tail each cross
  // many chunk boundaries, at different offsets every time.
  for (int round = 0; round < 20; ++round) {
    const std::uint64_t grow = kChunk * 3 + 5 + static_cast<unsigned>(round);
    for (std::uint64_t i = 0; i < grow; ++i) q.push(pushed++);
    const std::uint64_t shrink = grow - 7;
    for (std::uint64_t i = 0; i < shrink && !q.empty(); ++i) {
      ASSERT_EQ(q.front(), popped++);
      q.pop();
    }
    ASSERT_EQ(q.size(), pushed - popped);
  }
  while (!q.empty()) {
    ASSERT_EQ(q.front(), popped++);
    q.pop();
  }
  EXPECT_EQ(popped, pushed);
}

TEST(ChunkedFifo, BackIsTheNewestElementOnEitherSideOfABoundary) {
  ChunkedFifo<int> q;
  constexpr int kChunk = static_cast<int>(ChunkedFifo<int>::kChunkElems);
  q.push(0);
  EXPECT_EQ(q.back(), 0);
  EXPECT_EQ(&q.back(), &q.front());
  for (int i = 1; i < kChunk; ++i) q.push(i);
  EXPECT_EQ(q.back(), kChunk - 1);  // last slot of the first chunk
  q.push(kChunk);
  EXPECT_EQ(q.back(), kChunk);  // first slot of the second chunk
  q.back() = -1;
  EXPECT_EQ(q.front(), 0);
  for (int i = 0; i < kChunk; ++i) q.pop();
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), -1);
  EXPECT_EQ(&q.back(), &q.front());
}

TEST(ChunkedFifo, SteadyPushPopReusesTheSpareChunk) {
  // A sliding window 2.5 chunks deep, as a link's packets in flight are:
  // each drained head chunk becomes the spare that the tail takes next.
  struct Wide {
    std::array<std::uint64_t, 24> words{};  // about a Packet's size
  };
  ChunkedFifo<Wide> q;
  constexpr std::size_t kDepth = ChunkedFifo<Wide>::kChunkElems * 5 / 2;
  std::uint64_t next = 0, expect = 0;
  for (std::size_t i = 0; i < kDepth; ++i) q.push(Wide{{next++}});
  const auto slide = [&](int steps) {
    for (int i = 0; i < steps; ++i) {
      q.push(Wide{{next++}});
      ASSERT_EQ(q.front().words[0], expect++);
      q.pop();
    }
  };
  slide(100);  // warm-up: the window's first pass links its last chunk
  const std::uint64_t before = g_heap_allocs.load();
  slide(10000);
  EXPECT_EQ(g_heap_allocs.load(), before);
  EXPECT_EQ(q.size(), kDepth);
}

TEST(ChunkedFifo, DrainToEmptyThenRefillKeepsTwoChunks) {
  ChunkedFifo<std::uint64_t> q;
  constexpr std::uint64_t kChunk = ChunkedFifo<std::uint64_t>::kChunkElems;
  for (std::uint64_t i = 0; i < 10 * kChunk; ++i) q.push(i);
  for (std::uint64_t i = 0; i < 10 * kChunk; ++i) {
    ASSERT_EQ(q.front(), i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
  // Draining freed all but the chunk in use and the spare: refilling to
  // the same depth allocates the other eight again, and reads back in
  // order.
  const std::uint64_t before = g_heap_allocs.load();
  for (std::uint64_t i = 0; i < 10 * kChunk; ++i) q.push(100 + i);
  EXPECT_EQ(g_heap_allocs.load() - before, 8u);
  EXPECT_EQ(q.front(), 100u);
  EXPECT_EQ(q.back(), 100 + 10 * kChunk - 1);
  for (std::uint64_t i = 0; i < 10 * kChunk; ++i) {
    ASSERT_EQ(q.front(), 100 + i);
    q.pop();
  }
  EXPECT_TRUE(q.empty());
}

TEST(ChunkedFifo, DestroysWhatItHolds) {
  auto tracked = std::make_shared<int>(0);
  {
    ChunkedFifo<std::shared_ptr<int>> q;
    for (std::size_t i = 0; i < 3 * q.kChunkElems; ++i) q.push(tracked);
    for (std::size_t i = 0; i < q.kChunkElems; ++i) q.pop();
    EXPECT_EQ(tracked.use_count(),
              static_cast<long>(2 * q.kChunkElems + 1));
  }
  EXPECT_EQ(tracked.use_count(), 1);
}

// ---------- A whole OutputPort -> Link -> sink hop ----------

net::Packet data_packet() {
  return net::make_tcp_packet(net::ipv4(10, 0, 0, 1), net::ipv4(10, 0, 0, 2),
                              1000, 2000, 1, 0, net::tcpflags::kAck, 1460,
                              65535);
}

class CountingSink : public net::PacketSink {
 public:
  void on_packet(const net::Packet&) override { ++received; }
  std::uint64_t received = 0;
};

/// Enqueues a burst of packets on a port every period; its one live
/// event captures only `this`.
class BurstSource {
 public:
  BurstSource(sim::Simulation& sim, net::OutputPort& port, int burst,
              SimTime period)
      : sim_(sim), port_(port), burst_(burst), period_(period) {}
  void start() { sim_.at(sim_.now(), [this]() { tick(); }); }

 private:
  void tick() {
    for (int i = 0; i < burst_; ++i) {
      pkt_.ip.id = static_cast<std::uint16_t>(pkt_.ip.id + 1);
      port_.enqueue(pkt_);
    }
    sim_.after(period_, [this]() { tick(); });
  }

  sim::Simulation& sim_;
  net::OutputPort& port_;
  int burst_;
  SimTime period_;
  net::Packet pkt_ = data_packet();
};

TEST(LinkHop, SteadyStreamThroughPortAndLinkAllocatesNothing) {
  // 32 packets every ms onto a 1 Gb/s link: each burst queues on the port
  // (~12 us per packet), and the 5 ms propagation delay keeps ~160
  // packets in flight on the link's lane.
  sim::Simulation sim;
  CountingSink sink;
  net::Link link(sim, units::gbps(1), units::milliseconds(5));
  link.set_sink(sink);
  net::OutputPort port(sim, 1 << 20, link);
  std::uint64_t egress = 0;
  SimTime max_delay = 0;
  port.add_egress_hook([&egress, &max_delay](const net::Packet&, SimTime d) {
    ++egress;
    if (d > max_delay) max_delay = d;
  });
  BurstSource source(sim, port, 32, units::milliseconds(1));
  source.start();

  sim.run_until(units::milliseconds(50));  // warm-up: grow every queue
  const std::uint64_t before = g_heap_allocs.load();
  const std::uint64_t received_before = sink.received;
  sim.run_until(units::milliseconds(550));
  EXPECT_EQ(g_heap_allocs.load(), before);

  // Bursts 45 to 544 land in the measured window; each one queued 31
  // packets behind the first, and its last waited 32 serializations.
  const std::uint32_t wire = data_packet().wire_bytes();
  EXPECT_EQ(sink.received - received_before, 500u * 32u);
  EXPECT_EQ(link.delivered_pkts(), sink.received);
  EXPECT_EQ(port.queue().stats().dropped_pkts, 0u);
  EXPECT_EQ(port.queue().stats().peak_bytes, 31u * wire);
  EXPECT_EQ(max_delay, 32 * units::transmission_time(wire, units::gbps(1)));
  EXPECT_GE(egress, sink.received);
}

}  // namespace
}  // namespace p4s
