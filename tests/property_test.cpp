// Property-based tests (parameterized gtest over randomized inputs):
// invariants that must hold for arbitrary packets, sequences and loads.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <ostream>
#include <set>
#include <span>
#include <string>

#include "controlplane/resilient_sink.hpp"
#include "net/fault_injector.hpp"
#include "net/queue.hpp"
#include "net/report_channel.hpp"
#include "psonar/archiver.hpp"
#include "psonar/logstash.hpp"
#include "net/topology.hpp"
#include "net/wire.hpp"
#include "p4/cms.hpp"
#include "p4/hash.hpp"
#include "p4/parser.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "tcp/flow.hpp"
#include "tcp/seq.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace p4s {
namespace {

// ---------- wire round-trip over randomized packets ----------

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

net::Packet random_packet(sim::Rng& rng) {
  const int kind = static_cast<int>(rng.next_below(3));
  const auto src = static_cast<net::Ipv4Address>(rng.next_u64());
  const auto dst = static_cast<net::Ipv4Address>(rng.next_u64());
  const auto sport = static_cast<std::uint16_t>(rng.next_below(65536));
  const auto dport = static_cast<std::uint16_t>(rng.next_below(65536));
  const auto payload = static_cast<std::uint32_t>(rng.next_below(9000));
  switch (kind) {
    case 0: {
      const auto seq = static_cast<std::uint32_t>(rng.next_u64());
      const auto ack = static_cast<std::uint32_t>(rng.next_u64());
      const auto flags = static_cast<std::uint8_t>(rng.next_below(32));
      const auto window = static_cast<std::uint32_t>(
          rng.next_below(1u << 30) & ~((1u << net::kWindowShift) - 1));
      return net::make_tcp_packet(src, dst, sport, dport, seq, ack, flags,
                                  payload, window);
    }
    case 1:
      return net::make_udp_packet(src, dst, sport, dport,
                                  payload % 60000);
    default:
      return net::make_icmp_packet(
          src, dst, rng.chance(0.5) ? 8 : 0,
          static_cast<std::uint16_t>(rng.next_below(65536)),
          static_cast<std::uint16_t>(rng.next_below(65536)), payload % 500);
  }
}

TEST_P(WireRoundTrip, SerializeParseIdentity) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    net::Packet p = random_packet(rng);
    p.ip.id = static_cast<std::uint16_t>(rng.next_below(65536));
    p.ip.ttl = static_cast<std::uint8_t>(rng.next_below(256));
    // Options regions up to the largest legal IHL (15 words).
    const auto option_words = static_cast<std::uint8_t>(rng.next_below(11));
    p.ip.ihl = static_cast<std::uint8_t>(p.ip.ihl + option_words);
    p.ip.total_len = static_cast<std::uint16_t>(p.ip.total_len +
                                                option_words * 4);
    std::array<std::uint8_t, net::kMaxHeaderBytes> buf{};
    const std::span<const std::uint8_t> frame(
        buf.data(), net::serialize_headers(p, buf));
    // The serializer's checksum covers the full IHL.
    EXPECT_EQ(net::internet_checksum(frame.subspan(
                  net::kEthernetHeaderBytes, p.ip.header_bytes())),
              0);
    p4::PacketContext ctx;
    ctx.data = frame;
    ASSERT_TRUE(p4::parse(ctx));
    const p4::ParsedHeaders& hdr = ctx.hdr;
    ASSERT_TRUE(hdr.ipv4_valid);
    EXPECT_EQ(hdr.ipv4.src, p.ip.src);
    EXPECT_EQ(hdr.ipv4.dst, p.ip.dst);
    EXPECT_EQ(hdr.ipv4.ihl, p.ip.ihl);
    EXPECT_EQ(hdr.ipv4.id, p.ip.id);
    EXPECT_EQ(hdr.ipv4.ttl, p.ip.ttl);
    EXPECT_EQ(hdr.ipv4.total_len, p.ip.total_len);
    EXPECT_EQ(hdr.ipv4.protocol, p.ip.protocol);
    if (p.is_tcp()) {
      ASSERT_TRUE(hdr.tcp_valid);
      EXPECT_EQ(hdr.tcp.src_port, p.tcp().src_port);
      EXPECT_EQ(hdr.tcp.dst_port, p.tcp().dst_port);
      EXPECT_EQ(hdr.tcp.seq, p.tcp().seq);
      EXPECT_EQ(hdr.tcp.ack, p.tcp().ack);
      EXPECT_EQ(hdr.tcp.flags, p.tcp().flags);
      EXPECT_EQ(hdr.tcp.window, p.tcp().window);
    } else if (p.is_udp()) {
      ASSERT_TRUE(hdr.udp_valid);
      EXPECT_EQ(hdr.udp.src_port, p.udp().src_port);
      EXPECT_EQ(hdr.udp.dst_port, p.udp().dst_port);
      EXPECT_EQ(hdr.udp.length, p.udp().length);
    } else {
      ASSERT_TRUE(hdr.icmp_valid);
      EXPECT_EQ(hdr.icmp.type, p.icmp().type);
      EXPECT_EQ(hdr.icmp.ident, p.icmp().ident);
      EXPECT_EQ(hdr.icmp.seq, p.icmp().seq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------- CMS overestimation property ----------

class CmsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CmsProperty, EstimateNeverBelowTruth) {
  sim::Rng rng(GetParam());
  p4::CountMinSketch cms(3, 512);
  std::map<std::uint32_t, std::uint64_t> truth;
  std::vector<net::FiveTuple> tuples;
  for (int f = 0; f < 40; ++f) {
    tuples.push_back(net::FiveTuple{
        static_cast<net::Ipv4Address>(rng.next_u64()),
        static_cast<net::Ipv4Address>(rng.next_u64()),
        static_cast<std::uint16_t>(rng.next_below(65536)),
        static_cast<std::uint16_t>(rng.next_below(65536)), 6});
  }
  for (int i = 0; i < 5000; ++i) {
    const auto& t = tuples[rng.next_below(tuples.size())];
    const auto amount = rng.next_in(1, 1500);
    truth[p4::flow_hash(t)] += amount;
    cms.update(p4::five_tuple_key(t), amount);
  }
  for (const auto& t : tuples) {
    const auto it = truth.find(p4::flow_hash(t));
    if (it == truth.end()) continue;
    EXPECT_GE(cms.estimate(p4::five_tuple_key(t)), it->second);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmsProperty,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------- Jain fairness bounds ----------

class JainProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JainProperty, AlwaysWithinBounds) {
  sim::Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 1 + rng.next_below(16);
    std::vector<double> xs(n);
    for (auto& x : xs) x = rng.next_double() * 1e9;
    const auto f = util::jain_fairness(xs);
    if (!f.has_value()) {
      // Only an all-zero draw leaves the index undefined.
      for (double x : xs) EXPECT_EQ(x, 0.0);
      continue;
    }
    EXPECT_GE(*f, 1.0 / static_cast<double>(n) - 1e-9);
    EXPECT_LE(*f, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JainProperty, ::testing::Values(7, 77, 777));

// ---------- sequence unwrap round-trip ----------

class SeqUnwrapProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqUnwrapProperty, UnwrapInvertsTruncationNearReference) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t ref = rng.next_u64() >> rng.next_below(20);
    // offset within +/- 2^31 of the reference
    const std::int64_t delta =
        static_cast<std::int64_t>(rng.next_u64() % (1ULL << 31)) -
        (1LL << 30);
    const std::int64_t target =
        static_cast<std::int64_t>(ref) + delta;
    if (target < 0) continue;
    const auto truncated = static_cast<std::uint32_t>(target);
    EXPECT_EQ(tcp::seq_unwrap(ref, truncated),
              static_cast<std::uint64_t>(target))
        << "ref=" << ref << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqUnwrapProperty,
                         ::testing::Values(100, 200, 300, 400));

// ---------- drop-tail queue invariants under random load ----------

class QueueProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueProperty, OccupancyNeverExceedsCapacityAndConserves) {
  sim::Rng rng(GetParam());
  const std::uint64_t capacity = 20'000 + rng.next_below(50'000);
  net::DropTailQueue queue(capacity);
  std::uint64_t enq = 0, deq = 0, drop = 0;
  for (int i = 0; i < 5000; ++i) {
    if (rng.chance(0.6)) {
      const auto payload = static_cast<std::uint32_t>(rng.next_below(9000));
      const net::Packet p = net::make_udp_packet(1, 2, 3, 4, payload);
      if (queue.try_enqueue(p, i)) {
        ++enq;
      } else {
        ++drop;
      }
    } else if (queue.dequeue().has_value()) {
      ++deq;
    }
    EXPECT_LE(queue.occupancy_bytes(), capacity);
  }
  EXPECT_EQ(queue.stats().enqueued_pkts, enq);
  EXPECT_EQ(queue.stats().dropped_pkts, drop);
  EXPECT_EQ(queue.stats().dequeued_pkts, deq);
  EXPECT_EQ(enq - deq, queue.depth_pkts());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueProperty,
                         ::testing::Values(21, 42, 63, 84));

// ---------- event queue ordering under random schedules ----------

class EventOrderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventOrderProperty, FiresInNonDecreasingTimeOrder) {
  sim::Rng rng(GetParam());
  sim::EventQueue q;
  std::vector<SimTime> fired;
  for (int i = 0; i < 500; ++i) {
    const SimTime t = rng.next_below(100'000);
    q.schedule_at(t, [&fired, &q]() { fired.push_back(q.now()); });
  }
  q.run();
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
  EXPECT_EQ(fired.size(), 500u);
  EXPECT_EQ(fired.size(), q.executed_events());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Values(5, 15, 25));

// ---------- JSON round-trip over random documents ----------

class JsonProperty : public ::testing::TestWithParam<std::uint64_t> {};

util::Json random_json(sim::Rng& rng, int depth) {
  const std::uint64_t kind = rng.next_below(depth <= 0 ? 4 : 6);
  switch (kind) {
    case 0: return util::Json(nullptr);
    case 1: return util::Json(rng.chance(0.5));
    case 2: return util::Json(static_cast<std::int64_t>(rng.next_u64() >>
                                                        rng.next_below(40)));
    case 3: {
      std::string s;
      const auto len = rng.next_below(20);
      for (std::uint64_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(32 + rng.next_below(95)));
      }
      return util::Json(s);
    }
    case 4: {
      util::JsonArray arr;
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        arr.push_back(random_json(rng, depth - 1));
      }
      return util::Json(std::move(arr));
    }
    default: {
      util::JsonObject obj;
      const auto n = rng.next_below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        obj["k" + std::to_string(i)] = random_json(rng, depth - 1);
      }
      return util::Json(std::move(obj));
    }
  }
}

TEST_P(JsonProperty, DumpParseIdentity) {
  sim::Rng rng(GetParam());
  for (int i = 0; i < 100; ++i) {
    const util::Json doc = random_json(rng, 4);
    const util::Json reparsed = util::Json::parse(doc.dump());
    EXPECT_TRUE(doc == reparsed);
    // Pretty-printing parses back identically too.
    EXPECT_TRUE(doc == util::Json::parse(doc.dump(2)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonProperty,
                         ::testing::Values(31, 62, 93, 124));

// ---------- TCP delivers every byte exactly once under random loss ----

// The central correctness property of the TCP substrate: for arbitrary
// loss rates on either direction, a fixed-size transfer completes with
// goodput == bytes offered, no matter which packets die.
struct LossCase {
  std::uint64_t seed;
  double fwd_loss;
  double rev_loss;  // loss on the ACK path
  bool sack;
};

// Names each case by seed and SACK mode ("seed3_sack"). Without it gtest
// prints a LossCase as a byte dump, struct padding included, and CMake's
// test discovery puts that printout in the ctest name, so the names
// changed between builds.
void PrintTo(const LossCase& c, std::ostream* os) {
  *os << "seed" << c.seed << (c.sack ? "_sack" : "_nosack");
}

class TcpIntegrity : public ::testing::TestWithParam<LossCase> {};

TEST_P(TcpIntegrity, AllBytesDeliveredExactlyOnce) {
  const LossCase c = GetParam();
  sim::Simulation sim(c.seed);
  net::Network network(sim);
  net::PaperTopologyConfig tconfig;
  tconfig.bottleneck_bps = units::mbps(100);
  auto topo = net::make_paper_topology(network, tconfig);
  topo.ext_dtn_links[0].reverse_link->set_loss_rate(c.fwd_loss);
  topo.ext_dtn_links[0].forward_link->set_loss_rate(c.rev_loss);

  tcp::TcpFlow::Config fc;
  fc.sender.sack = c.sack;
  fc.sender.bytes_to_send = 1'000'000;
  tcp::TcpFlow flow(sim, *topo.dtn_internal, *topo.dtn_ext[0], fc);
  flow.start_at(units::milliseconds(1));
  sim.run_until(units::seconds(180));

  EXPECT_TRUE(flow.complete())
      << "seed=" << c.seed << " fwd=" << c.fwd_loss << " rev=" << c.rev_loss;
  EXPECT_EQ(flow.receiver().stats().goodput_bytes, 1'000'000u);
  EXPECT_EQ(flow.sender().stats().bytes_acked, 1'000'000u);
}

INSTANTIATE_TEST_SUITE_P(
    LossMatrix, TcpIntegrity,
    ::testing::Values(LossCase{1, 0.0, 0.0, true},
                      LossCase{2, 0.001, 0.0, true},
                      LossCase{3, 0.01, 0.0, true},
                      LossCase{4, 0.0, 0.01, true},
                      LossCase{5, 0.005, 0.005, true},
                      LossCase{6, 0.03, 0.01, true},
                      LossCase{7, 0.01, 0.0, false},
                      LossCase{8, 0.005, 0.005, false}));

// ---------- report transport delivery invariants ----------

// For random seeded fault schedules crossed with random report streams,
// the resilient transport must uphold:
//   1. no sequence number is archived twice (dedup works);
//   2. dropped + archived == emitted (exact conservation);
//   3. under a fault-free schedule, reports archive in emission order.
class TransportProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransportProperty, ConservationAndUniquenessUnderRandomFaults) {
  const std::uint64_t seed = GetParam();
  sim::Simulation sim(seed);
  sim::Rng rng(seed * 7919 + 1);
  ps::Archiver archiver;
  ps::Logstash logstash(archiver);

  net::ReportChannel::Config cc;
  cc.latency = units::microseconds(100 + rng.next_below(2000));
  cc.max_chunk_bytes = 1 + rng.next_below(500);
  cc.send_buffer_bytes = 4096 + rng.next_below(64 * 1024);
  cc.seed = seed;
  net::ReportChannel channel(sim, cc);
  channel.set_receiver(
      [&logstash](std::string_view chunk) { logstash.tcp_input(chunk); });
  channel.on_disconnect([&logstash]() { logstash.tcp_reset(); });

  cp::ResilientReportSink::Config sc;
  sc.health_interval = 0;  // the archive holds only this test's stream
  sc.ack_timeout = units::milliseconds(20 + rng.next_below(100));
  sc.backoff.base = units::milliseconds(5);
  sc.backoff.max = units::milliseconds(250);
  sc.queue_capacity = 16 + rng.next_below(200);
  sc.seed = seed;
  cp::ResilientReportSink sink(sim, channel, sc);
  logstash.set_transport_ack(
      [&sink](std::uint64_t seq) { sink.on_ack(seq); });

  net::FaultInjector injector(sim, channel);
  net::FaultInjector::RandomProfile profile;
  profile.resets_per_second = rng.next_double() * 2.0;
  profile.stalls_per_second = rng.next_double() * 2.0;
  profile.until = units::seconds(8);  // leave time to drain
  profile.seed = seed;
  injector.enable_random(profile);
  injector.arm();

  // Random report stream: bursty arrivals with varying payload sizes.
  const int n_reports = 100 + static_cast<int>(rng.next_below(300));
  SimTime at = 0;
  for (int i = 0; i < n_reports; ++i) {
    at += rng.next_below(units::milliseconds(60));
    sim.at(at, [&sink, &rng, i]() {
      util::Json j = util::Json::object();
      j["report"] = "prop";
      j["ts_ns"] = i;
      j["pad"] = std::string(rng.next_below(200), 'p');
      sink.on_report(j);
    });
  }
  // Run far past the fault horizon and last emission so retries drain.
  sim.run_until(units::seconds(60));

  const auto docs = archiver.search("p4sonar-prop");
  std::set<std::int64_t> seqs;
  for (const auto& d : docs) {
    ASSERT_TRUE(d.contains("@xmit_seq"));
    EXPECT_TRUE(seqs.insert(d.at("@xmit_seq").as_int()).second)
        << "duplicate @xmit_seq " << d.at("@xmit_seq").as_int();
  }
  const auto& h = sink.health();
  EXPECT_EQ(h.emitted, static_cast<std::uint64_t>(n_reports));
  EXPECT_EQ(h.queued, 0u) << "transport failed to drain";
  EXPECT_EQ(h.dropped_overflow + docs.size(), h.emitted)
      << "conservation violated: dropped + archived != emitted";
  EXPECT_EQ(h.acked, docs.size());
}

TEST_P(TransportProperty, FaultFreeArchivesInEmissionOrder) {
  const std::uint64_t seed = GetParam();
  sim::Simulation sim(seed);
  sim::Rng rng(seed * 104729 + 3);
  ps::Archiver archiver;
  ps::Logstash logstash(archiver);
  net::ReportChannel::Config cc;
  cc.max_chunk_bytes = 1 + rng.next_below(64);  // brutal chunking, no faults
  cc.seed = seed;
  net::ReportChannel channel(sim, cc);
  channel.set_receiver(
      [&logstash](std::string_view chunk) { logstash.tcp_input(chunk); });
  cp::ResilientReportSink::Config sc;
  sc.health_interval = 0;
  cp::ResilientReportSink sink(sim, channel, sc);
  logstash.set_transport_ack(
      [&sink](std::uint64_t seq) { sink.on_ack(seq); });

  const int n_reports = 50 + static_cast<int>(rng.next_below(100));
  SimTime at = 0;
  for (int i = 0; i < n_reports; ++i) {
    at += rng.next_below(units::milliseconds(10));
    sim.at(at, [&sink, i]() {
      util::Json j = util::Json::object();
      j["report"] = "ordered";
      j["ts_ns"] = i;
      sink.on_report(j);
    });
  }
  sim.run_until(units::seconds(30));

  const auto docs = archiver.search("p4sonar-ordered");
  ASSERT_EQ(docs.size(), static_cast<std::size_t>(n_reports));
  std::int64_t prev = -1;
  for (const auto& d : docs) {
    const std::int64_t s = d.at("@xmit_seq").as_int();
    EXPECT_GT(s, prev) << "out of order on a fault-free wire";
    prev = s;
  }
  EXPECT_EQ(sink.health().retried, 0u);
  EXPECT_EQ(sink.health().dropped_overflow, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransportProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------- flow hash slot distribution ----------

TEST(HashDistribution, SlotsSpreadAcrossRegisterFile) {
  sim::Rng rng(1);
  std::array<int, 64> buckets{};
  for (int i = 0; i < 20000; ++i) {
    const net::FiveTuple t{
        static_cast<net::Ipv4Address>(rng.next_u64()),
        static_cast<net::Ipv4Address>(rng.next_u64()),
        static_cast<std::uint16_t>(rng.next_below(65536)),
        static_cast<std::uint16_t>(rng.next_below(65536)), 6};
    buckets[(p4::flow_hash(t) & 2047) % 64] += 1;
  }
  for (int b : buckets) {
    EXPECT_NEAR(static_cast<double>(b), 20000.0 / 64, 20000.0 / 64 * 0.3);
  }
}

}  // namespace
}  // namespace p4s
