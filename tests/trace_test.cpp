// Trace subsystem: pcap format round trips, capture tee, replay merge /
// stats / pacing, foreign-frame tolerance, and the p4s-trace CLI.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "frame_corpus.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "p4/p4_switch.hpp"
#include "sim/simulation.hpp"
#include "telemetry/dataplane_program.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_capture.hpp"
#include "trace/trace_cli.hpp"
#include "trace/trace_replayer.hpp"

using namespace p4s;

namespace {

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

using test::serialized;

// ------------------------------------------------------------- pcap layout

TEST(Pcap, GlobalAndRecordHeaderLayout) {
  std::ostringstream out;
  trace::PcapWriter writer(out, /*snaplen=*/4096);
  const auto frame = bytes_of("abcd");
  writer.write(/*ts=*/3'000'000'007ULL, frame, /*orig_len=*/60);
  const std::string data = out.str();
  ASSERT_EQ(data.size(), trace::kPcapGlobalHeaderBytes +
                             trace::kPcapRecordHeaderBytes + 4);
  const auto* b = reinterpret_cast<const std::uint8_t*>(data.data());
  // Global header, little-endian: nanosecond magic, version 2.4,
  // thiszone 0, sigfigs 0, snaplen, linktype Ethernet.
  const std::uint8_t expected_global[24] = {
      0x4d, 0x3c, 0xb2, 0xa1, 0x02, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00};
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(b[i], expected_global[i]) << "global header byte " << i;
  }
  // Record header: ts_sec=3, ts_nsec=7, incl_len=4, orig_len=60.
  const std::uint8_t expected_record[16] = {
      0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
      0x00, 0x3c, 0x00, 0x00, 0x00};
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(b[24 + i], expected_record[i]) << "record header byte " << i;
  }
  EXPECT_EQ(data.substr(40), "abcd");
}

TEST(Pcap, RoundTripWithSnaplenTruncation) {
  std::stringstream io;
  trace::PcapWriter writer(io, /*snaplen=*/8);
  writer.write(1, bytes_of("short"));
  writer.write(2'500'000'123ULL, bytes_of("longer than snaplen"));
  writer.write(3, bytes_of("padded"), /*orig_len=*/1500);

  trace::PcapReader reader(io);
  EXPECT_TRUE(reader.info().nanosecond);
  EXPECT_FALSE(reader.info().swapped);
  EXPECT_EQ(reader.info().version_major, trace::kPcapVersionMajor);
  EXPECT_EQ(reader.info().version_minor, trace::kPcapVersionMinor);
  EXPECT_EQ(reader.info().snaplen, 8u);
  EXPECT_EQ(reader.info().linktype, trace::kLinktypeEthernet);

  auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->ts, 1u);
  EXPECT_EQ(r1->orig_len, 5u);
  EXPECT_EQ(r1->bytes, bytes_of("short"));

  auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->ts, 2'500'000'123ULL);
  EXPECT_EQ(r2->orig_len, 19u);  // full wire length preserved
  EXPECT_EQ(r2->bytes, bytes_of("longer t"));  // truncated to snaplen

  auto r3 = reader.next();
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r3->orig_len, 1500u);
  EXPECT_EQ(r3->bytes, bytes_of("padded"));

  EXPECT_FALSE(reader.next().has_value());  // clean EOF
  EXPECT_EQ(reader.records_read(), 3u);
}

namespace layout {
// Hand-built foreign files: microsecond resolution and big-endian byte
// order, which our writer never produces but the reader must accept.
std::string micro_le_file() {
  std::string d;
  auto le32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) d.push_back(char((v >> (8 * i)) & 0xFF));
  };
  auto le16 = [&](std::uint16_t v) {
    d.push_back(char(v & 0xFF));
    d.push_back(char(v >> 8));
  };
  le32(trace::kPcapMagicMicro);
  le16(2); le16(4); le32(0); le32(0); le32(65535); le32(1);
  le32(5); le32(250);  // ts = 5 s + 250 us
  le32(3); le32(3);
  d += "xyz";
  return d;
}

std::string nano_be_file() {
  std::string d;
  auto be32 = [&](std::uint32_t v) {
    for (int i = 3; i >= 0; --i) d.push_back(char((v >> (8 * i)) & 0xFF));
  };
  auto be16 = [&](std::uint16_t v) {
    d.push_back(char(v >> 8));
    d.push_back(char(v & 0xFF));
  };
  be32(trace::kPcapMagicNano);
  be16(2); be16(4); be32(0); be32(0); be32(262144); be32(1);
  be32(1); be32(42);  // ts = 1 s + 42 ns
  be32(2); be32(2);
  d += "hi";
  return d;
}
}  // namespace layout

TEST(Pcap, ReadsMicrosecondFiles) {
  std::istringstream in(layout::micro_le_file());
  trace::PcapReader reader(in);
  EXPECT_FALSE(reader.info().nanosecond);
  EXPECT_FALSE(reader.info().swapped);
  auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts, 5'000'250'000ULL);  // scaled to nanoseconds
  EXPECT_EQ(rec->bytes, bytes_of("xyz"));
}

TEST(Pcap, ReadsSwappedByteOrder) {
  std::istringstream in(layout::nano_be_file());
  trace::PcapReader reader(in);
  EXPECT_TRUE(reader.info().nanosecond);
  EXPECT_TRUE(reader.info().swapped);
  EXPECT_EQ(reader.info().snaplen, 262144u);
  EXPECT_EQ(reader.info().linktype, 1u);
  auto rec = reader.next();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->ts, 1'000'000'042ULL);
  EXPECT_EQ(rec->orig_len, 2u);
  EXPECT_EQ(rec->bytes, bytes_of("hi"));
}

TEST(Pcap, MalformedFilesThrowCleanly) {
  {  // not a pcap at all
    std::istringstream in("this is definitely not a capture file....");
    EXPECT_THROW(trace::PcapReader r(in), trace::PcapError);
  }
  {  // shorter than the global header
    std::istringstream in("\x4d\x3c\xb2\xa1 tiny");
    EXPECT_THROW(trace::PcapReader r(in), trace::PcapError);
  }
  {  // truncated record header
    std::string d = layout::nano_be_file();
    d.resize(trace::kPcapGlobalHeaderBytes + 7);
    std::istringstream in(d);
    trace::PcapReader reader(in);
    EXPECT_THROW(reader.next(), trace::PcapError);
  }
  {  // truncated mid-frame
    std::string d = layout::nano_be_file();
    d.resize(d.size() - 1);
    std::istringstream in(d);
    trace::PcapReader reader(in);
    EXPECT_THROW(reader.next(), trace::PcapError);
  }
  {  // incl_len beyond snaplen (corrupt length field)
    std::ostringstream out;
    trace::PcapWriter writer(out, 65535);
    writer.write(1, bytes_of("ok"));
    std::string d = out.str();
    d[trace::kPcapGlobalHeaderBytes + 8] = '\xff';  // incl_len low byte
    d[trace::kPcapGlobalHeaderBytes + 11] = '\x7f';  // incl_len high byte
    std::istringstream in(d);
    trace::PcapReader reader(in);
    EXPECT_THROW(reader.next(), trace::PcapError);
  }
  {  // nonexistent file
    EXPECT_THROW(trace::PcapReader r(temp_path("no-such-file.pcap")),
                 trace::PcapError);
  }
}

// A corrupt snaplen field is no bound: a record's length must stay within
// libpcap's maximum before the reader allocates it, or a 40-byte file
// claims gigabytes.
TEST(Pcap, LengthBeyondTheMaximumRecordThrowsBeforeAllocating) {
  for (const std::uint32_t snaplen : {0xFFFFFFFFu, 0u}) {
    std::ostringstream out;
    trace::PcapWriter writer(out, snaplen);
    writer.write(1, bytes_of("ok"));
    std::string d = out.str();
    const std::uint32_t incl_len = trace::kMaxRecordBytes + 1;
    for (int i = 0; i < 4; ++i) {
      d[trace::kPcapGlobalHeaderBytes + 8 + i] =
          static_cast<char>(incl_len >> (8 * i));
    }
    std::istringstream in(d);
    trace::PcapReader reader(in);
    try {
      (void)reader.next();
      ADD_FAILURE() << "snaplen " << snaplen << ": record accepted";
    } catch (const trace::PcapError& e) {
      EXPECT_NE(std::string(e.what()).find("claims 262145 captured bytes"),
                std::string::npos)
          << e.what();
    }
  }
}

// ------------------------------------------------------------- capture tee

struct RecordingSink : net::MirrorSink {
  std::vector<std::pair<net::MirrorPoint, std::size_t>> calls;
  void on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                         net::MirrorPoint point, std::uint32_t) override {
    calls.emplace_back(point, bytes.size());
  }
};

TEST(TraceCapture, TeesToPerPortFilesAndForwards) {
  sim::Simulation sim;
  RecordingSink next;
  std::stringstream ingress_io, egress_io;
  trace::TraceCapture capture(sim, next, ingress_io, egress_io);

  const net::Packet data = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 1, 0,
      net::tcpflags::kAck, 1000, 65535);
  const auto wire = serialized(data);
  const std::uint32_t wire_len = static_cast<std::uint32_t>(
      net::kEthernetHeaderBytes + data.ip.total_len);

  sim.at(100, [&]() {
    capture.on_mirrored_bytes(wire, net::MirrorPoint::kIngress, wire_len);
  });
  sim.at(250, [&]() {
    capture.on_mirrored_bytes(wire, net::MirrorPoint::kEgress, wire_len);
  });
  sim.at(300, [&]() {
    capture.on_mirrored(data, net::MirrorPoint::kIngress);
  });
  sim.run();
  capture.flush();

  ASSERT_EQ(next.calls.size(), 3u);  // everything forwarded
  EXPECT_EQ(capture.captured(net::MirrorPoint::kIngress), 2u);
  EXPECT_EQ(capture.captured(net::MirrorPoint::kEgress), 1u);
  EXPECT_EQ(capture.captured_total(), 3u);

  trace::PcapReader ingress(ingress_io);
  auto r1 = ingress.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->ts, 100u);  // recorded at simulation delivery time
  EXPECT_EQ(r1->bytes, wire);
  // On the wire the frame was Ethernet + ip.total_len; we captured only
  // the serialized headers.
  EXPECT_EQ(r1->orig_len, net::kEthernetHeaderBytes + data.ip.total_len);
  EXPECT_GT(r1->orig_len, r1->bytes.size());
  auto r2 = ingress.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->ts, 300u);
  EXPECT_EQ(r2->bytes, wire);  // packet-level entry serializes identically

  trace::PcapReader egress(egress_io);
  auto e1 = egress.next();
  ASSERT_TRUE(e1.has_value());
  EXPECT_EQ(e1->ts, 250u);
  EXPECT_FALSE(egress.next().has_value());
}

TEST(TraceCapture, PortPathNaming) {
  EXPECT_EQ(trace::TraceCapture::port_path("run1",
                                           net::MirrorPoint::kIngress),
            "run1.ingress.pcap");
  EXPECT_EQ(trace::TraceCapture::port_path("run1",
                                           net::MirrorPoint::kEgress),
            "run1.egress.pcap");
}

// ---------------------------------------------------------------- replayer

// Writes a two-port capture: ingress frames at 100/200/300 ns, egress at
// 150/200 ns — the 200 ns tie must replay ingress first. The files are
// named after the running test, so tests run in parallel (ctest -j)
// never write or read each other's capture.
std::string per_test_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return temp_path(std::string(info->test_suite_name()) + "." + info->name() +
                   suffix);
}

struct TwoPortFixture {
  std::string ingress_path = per_test_path(".ingress.pcap");
  std::string egress_path = per_test_path(".egress.pcap");
  std::vector<std::uint8_t> wire;

  TwoPortFixture() {
    const net::Packet pkt = net::make_tcp_packet(
        net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 1, 0,
        net::tcpflags::kAck, 1000, 65535);
    wire = serialized(pkt);
    trace::PcapWriter ingress(ingress_path);
    ingress.write(100, wire);
    ingress.write(200, wire);
    ingress.write(300, wire);
    trace::PcapWriter egress(egress_path);
    egress.write(150, wire);
    egress.write(200, wire);
  }
};

TEST(TraceReplayer, MergesPortsTimestampOrderedIngressFirstOnTies) {
  TwoPortFixture fx;
  auto trace = trace::TraceReplayer::from_files(fx.ingress_path,
                                                fx.egress_path);
  ASSERT_EQ(trace.frames().size(), 5u);
  const std::vector<std::pair<SimTime, net::MirrorPoint>> expected = {
      {100, net::MirrorPoint::kIngress}, {150, net::MirrorPoint::kEgress},
      {200, net::MirrorPoint::kIngress}, {200, net::MirrorPoint::kEgress},
      {300, net::MirrorPoint::kIngress}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(trace.frames()[i].ts, expected[i].first) << i;
    EXPECT_EQ(trace.frames()[i].point, expected[i].second) << i;
  }
}

TEST(TraceReplayer, PacedReplayDeliversAtRecordedTimestamps) {
  TwoPortFixture fx;
  auto trace = trace::TraceReplayer::from_files(fx.ingress_path,
                                                fx.egress_path);
  sim::Simulation sim;
  struct TimedSink : net::MirrorSink {
    sim::Simulation& sim;
    std::vector<std::pair<SimTime, net::MirrorPoint>> seen;
    explicit TimedSink(sim::Simulation& s) : sim(s) {}
    void on_mirrored_bytes(std::span<const std::uint8_t>,
                           net::MirrorPoint point, std::uint32_t) override {
      seen.emplace_back(sim.now(), point);
    }
  } sink(sim);
  trace.replay(sim, sink);
  ASSERT_EQ(sink.seen.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.seen[i].first, trace.frames()[i].ts) << i;
    EXPECT_EQ(sink.seen[i].second, trace.frames()[i].point) << i;
  }
}

TEST(TraceReplayer, MaxSpeedReplayPreservesOrder) {
  TwoPortFixture fx;
  auto trace = trace::TraceReplayer::from_files(fx.ingress_path,
                                                fx.egress_path);
  sim::Simulation sim;
  RecordingSink sink;
  trace.replay(sim, sink);
  ASSERT_EQ(sink.calls.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(sink.calls[i].first, trace.frames()[i].point) << i;
  }
  EXPECT_EQ(sim.now(), 300u);  // advanced to the last frame's timestamp
  // A second pass finds every timestamp passed: all frames land at now().
  trace.replay(sim, sink);
  EXPECT_EQ(sink.calls.size(), 10u);
  EXPECT_EQ(sim.now(), 300u);
}

// The live read rule: a control-plane read at time T sees exactly the
// copies due before T, also after a gap longer than the read period.
TEST(TraceReplayer, ReadAtAFrameTimestampSeesOnlyEarlierFrames) {
  TwoPortFixture fx;  // frames at 100, 150, 200, 200, 300
  auto trace = trace::TraceReplayer::from_files(fx.ingress_path,
                                                fx.egress_path);
  sim::Simulation sim;
  RecordingSink sink;
  std::vector<std::pair<SimTime, std::size_t>> reads;
  sim.every(50, 50, [&] {
    reads.emplace_back(sim.now(), sink.calls.size());
    return true;
  });
  trace.replay(sim, sink);
  const std::vector<std::pair<SimTime, std::size_t>> expected = {
      {50, 0}, {100, 0}, {150, 1}, {200, 2}, {250, 4}, {300, 4}};
  EXPECT_EQ(reads, expected);
  EXPECT_EQ(sink.calls.size(), 5u);

  // Frames past `until` stay undelivered.
  sim::Simulation bounded;
  RecordingSink partial;
  trace.replay(bounded, partial, /*until=*/250);
  EXPECT_EQ(partial.calls.size(), 4u);
  EXPECT_EQ(bounded.now(), 200u);
}

TEST(TraceReplayer, AnalyzeCategorizesForeignFrames) {
  std::vector<trace::TraceFrame> frames;
  auto add = [&](SimTime ts, std::vector<std::uint8_t> bytes,
                 std::uint32_t orig_len = 0) {
    trace::TraceFrame f;
    f.ts = ts;
    f.point = net::MirrorPoint::kIngress;
    f.bytes = std::move(bytes);
    f.orig_len = orig_len != 0 ? orig_len
                               : static_cast<std::uint32_t>(f.bytes.size());
    frames.push_back(std::move(f));
  };

  // Plain TCP ACK, header-only.
  const net::Packet tcp_pkt = net::make_tcp_packet(
      net::ipv4(1, 2, 3, 4), net::ipv4(5, 6, 7, 8), 1, 2, 0, 0,
      net::tcpflags::kAck, 0, 1000);
  add(10, serialized(tcp_pkt));
  // TCP data packet (payload bytes beyond the headers on the wire).
  const net::Packet data_pkt = net::make_tcp_packet(
      net::ipv4(1, 2, 3, 4), net::ipv4(5, 6, 7, 8), 1, 2, 0, 0,
      net::tcpflags::kAck, 1200, 1000);
  add(20, serialized(data_pkt));
  // UDP with payload.
  add(30, serialized(net::make_udp_packet(net::ipv4(1, 2, 3, 4),
                                          net::ipv4(5, 6, 7, 8), 1, 2, 64)));
  // IPv4 with options (IHL 6).
  net::Packet opt_pkt = tcp_pkt;
  opt_pkt.ip.ihl = 6;
  opt_pkt.ip.total_len += 4;
  add(40, serialized(opt_pkt));
  // ARP frame (unknown EtherType).
  std::vector<std::uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  add(50, arp);
  // Truncated runt (shorter than an Ethernet header).
  add(60, std::vector<std::uint8_t>{0xde, 0xad});

  auto trace = trace::TraceReplayer::from_frames(std::move(frames));
  const auto s = trace.analyze();
  EXPECT_EQ(s.frames, 6u);
  EXPECT_EQ(s.ingress_frames, 6u);
  EXPECT_EQ(s.ipv4, 4u);
  EXPECT_EQ(s.tcp, 3u);
  EXPECT_EQ(s.udp, 1u);
  EXPECT_EQ(s.non_ipv4, 1u);
  EXPECT_EQ(s.ipv4_options, 1u);
  EXPECT_EQ(s.with_payload, 2u);
  EXPECT_EQ(s.undecodable, 1u);
  EXPECT_EQ(s.first_ts, 10u);
  EXPECT_EQ(s.last_ts, 60u);
  EXPECT_EQ(s.ethertypes.at(0x0800), 4u);
  EXPECT_EQ(s.ethertypes.at(0x0806), 1u);
}

TEST(TraceReplayer, ForeignFramesFlowThroughP4SwitchWithoutCrashing) {
  // The same foreign mix, pushed through the real parser + program.
  std::vector<trace::TraceFrame> frames;
  auto add = [&](SimTime ts, std::vector<std::uint8_t> bytes) {
    trace::TraceFrame f;
    f.ts = ts;
    f.bytes = std::move(bytes);
    f.orig_len = static_cast<std::uint32_t>(f.bytes.size());
    frames.push_back(std::move(f));
  };
  const net::Packet tcp_pkt = net::make_tcp_packet(
      net::ipv4(1, 2, 3, 4), net::ipv4(5, 6, 7, 8), 1, 2, 100, 0,
      net::tcpflags::kAck, 1200, 1000);
  add(10, serialized(tcp_pkt));
  net::Packet opt_pkt = tcp_pkt;
  opt_pkt.ip.ihl = 7;
  opt_pkt.ip.total_len += 8;
  add(20, serialized(opt_pkt));
  std::vector<std::uint8_t> arp(42, 0);
  arp[12] = 0x08;
  arp[13] = 0x06;
  add(30, arp);
  add(40, {0x01, 0x02, 0x03});
  // A frame with trailing payload bytes actually present (real captures
  // include them; our parser must skip past the headers).
  auto padded = serialized(tcp_pkt);
  padded.resize(padded.size() + 32, 0xAB);
  add(50, padded);

  sim::Simulation sim;
  telemetry::DataPlaneProgram program;
  p4::P4Switch sw(sim, "test");
  sw.load_program(program);
  auto trace = trace::TraceReplayer::from_frames(std::move(frames));
  trace.replay(sim, sw);
  // TCP frames (plain, options, padded) parse fully; the ARP frame
  // accepts with only Ethernet extracted; the runt is rejected.
  EXPECT_EQ(sw.processed_pkts(), 4u);
  EXPECT_EQ(sw.parse_errors(), 1u);
}

// analyze() and replay read frames through the same parser, so their
// counts agree on any input: a frame is undecodable exactly when the
// switch counts a parse error for it.
void expect_analyze_agrees_with_replay(const trace::TraceReplayer& trace) {
  const auto s = trace.analyze();
  sim::Simulation sim;
  p4::P4Switch sw(sim, "agree");
  trace.replay(sim, sw);
  EXPECT_EQ(s.undecodable, sw.parse_errors());
  EXPECT_EQ(s.frames - s.undecodable, sw.processed_pkts());
  EXPECT_EQ(s.frames, s.undecodable + s.non_ipv4 + s.ipv4);
  EXPECT_EQ(s.ipv4, s.tcp + s.udp + s.icmp + s.other_l4);
}

std::vector<trace::TraceFrame> frames_of(
    const std::vector<std::vector<std::uint8_t>>& byte_frames) {
  std::vector<trace::TraceFrame> frames;
  for (const auto& bytes : byte_frames) {
    trace::TraceFrame f;
    f.ts = 10 * (frames.size() + 1);
    f.bytes = bytes;
    f.orig_len = static_cast<std::uint32_t>(bytes.size());
    frames.push_back(std::move(f));
  }
  return frames;
}

TEST(TraceReplayer, AnalyzeAgreesWithReplayParseErrors) {
  // A TCP header cut by snaplen to 13 bytes.
  const net::Packet data_pkt = net::make_tcp_packet(
      net::ipv4(1, 2, 3, 4), net::ipv4(5, 6, 7, 8), 1, 2, 0, 0,
      net::tcpflags::kAck, 1200, 1000);
  auto snapped = serialized(data_pkt);
  snapped.resize(net::kEthernetHeaderBytes + 20 + 13);
  // A QUIC long header with a 4-byte DCID: not the fixed shape the
  // parser extracts, so the datagram is plain UDP.
  auto short_cid = serialized(net::make_udp_packet(
      net::ipv4(1, 2, 3, 4), net::ipv4(5, 6, 7, 8), 40000, 4433, 1200));
  short_cid.insert(short_cid.end(),
                   {0xC3, 0, 0, 0, 1,                       // Initial, v1
                    4, 0xAA, 0xBB, 0xCC, 0xDD,              // DCID
                    8, 1, 2, 3, 4, 5, 6, 7, 8,              // SCID
                    0, 0, 0, 1});                           // pn
  // An IPv4 header with IHL 4.
  auto bad_ihl = serialized(data_pkt);
  bad_ihl[net::kEthernetHeaderBytes] = 0x44;

  const auto three = trace::TraceReplayer::from_frames(
      frames_of({snapped, short_cid, bad_ihl}));
  const auto s = three.analyze();
  EXPECT_EQ(s.undecodable, 2u);
  EXPECT_EQ(s.ipv4, 1u);
  EXPECT_EQ(s.tcp, 0u);
  EXPECT_EQ(s.udp, 1u);
  EXPECT_EQ(s.quic, 0u);
  EXPECT_EQ(s.with_payload, 1u);
  EXPECT_EQ(s.ethertypes.at(0x0800), 3u);
  expect_analyze_agrees_with_replay(three);

  // The robustness corpus with every truncated prefix.
  std::vector<std::vector<std::uint8_t>> prefixes;
  for (const auto& frame : test::frame_corpus()) {
    for (std::size_t len = 0; len <= frame.size(); ++len) {
      prefixes.emplace_back(frame.begin(), frame.begin() + len);
    }
  }
  expect_analyze_agrees_with_replay(
      trace::TraceReplayer::from_frames(frames_of(prefixes)));
}

// --------------------------------------------------------------------- CLI

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

TEST(TraceCli, InfoPrintsHeaderAndRecordSummary) {
  TwoPortFixture fx;
  std::string out, err;
  ASSERT_EQ(run_cli({"info", fx.ingress_path}, &out, &err), 0) << err;
  EXPECT_NE(out.find("pcap 2.4"), std::string::npos) << out;
  EXPECT_NE(out.find("nanosecond"), std::string::npos);
  EXPECT_NE(out.find("linktype: 1 (Ethernet)"), std::string::npos);
  EXPECT_NE(out.find("records: 3"), std::string::npos);
}

TEST(TraceCli, StatsAnalyzesMergedTrace) {
  TwoPortFixture fx;
  std::string out, err;
  ASSERT_EQ(run_cli({"stats", fx.ingress_path, fx.egress_path}, &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("frames: 5 (ingress 3, egress 2)"), std::string::npos)
      << out;
  EXPECT_NE(out.find("0x0800: 5"), std::string::npos);
}

TEST(TraceCli, StatsTopFlowsAndQuicCounting) {
  // Two TCP flows of different sizes plus a QUIC short-header frame:
  // --flows must rank by bytes and stats must count the QUIC frame.
  const std::string path = temp_path("flows_test.ingress.pcap");
  const net::Packet big = net::make_tcp_packet(
      net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 1, 0,
      net::tcpflags::kAck, 1400, 65535);
  const net::Packet small = net::make_tcp_packet(
      net::ipv4(10, 2, 0, 10), net::ipv4(10, 1, 0, 10), 6001, 80, 1, 0,
      net::tcpflags::kSyn, 0, 65535);
  net::QuicHeader hdr;
  hdr.long_form = false;
  hdr.spin = true;
  hdr.dcid = 0xD1D;
  hdr.packet_number = 9;
  const net::Packet quic = net::make_quic_packet(
      net::ipv4(10, 3, 0, 10), net::ipv4(10, 1, 0, 10), 40000, 4433, hdr,
      1200);
  {
    trace::PcapWriter w(path);
    w.write(100, serialized(big));
    w.write(200, serialized(big));
    w.write(300, serialized(small));
    w.write(400, serialized(quic));
  }
  std::string out, err;
  ASSERT_EQ(run_cli({"stats", "--flows", "2", path}, &out, &err), 0) << err;
  EXPECT_NE(out.find("quic: 1 (long-header 0, short-header 1)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("flows: 3 (top 2 by bytes"), std::string::npos) << out;
  // Ranked by bytes: the two-frame TCP flow first, the QUIC flow second
  // (1200 B payload beats the 54 B SYN), the SYN cut by top 2.
  const auto big_pos =
      out.find("tcp 10.0.0.10:5001 -> 10.1.0.10:5201: 2 frames");
  const auto quic_pos = out.find("quic 10.3.0.10:40000 -> 10.1.0.10:4433");
  ASSERT_NE(big_pos, std::string::npos) << out;
  ASSERT_NE(quic_pos, std::string::npos) << out;
  EXPECT_LT(big_pos, quic_pos);
  EXPECT_EQ(out.find("tcp 10.2.0.10:6001"), std::string::npos) << out;
}

TEST(TraceCli, ReplayRunsThePipeline) {
  TwoPortFixture fx;
  std::string out, err;
  ASSERT_EQ(run_cli({"replay", fx.ingress_path, fx.egress_path,
                     "--runout-seconds", "1"},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("replayed 5 frames\n"), std::string::npos) << out;
  EXPECT_NE(out.find("processed: 5, parse errors: 0"), std::string::npos);
  // One delivery loop: the removed --max-speed switch is an unknown flag.
  EXPECT_EQ(run_cli({"replay", fx.ingress_path, "--max-speed"}, &out, &err),
            2);
  EXPECT_NE(err.find("unknown flag --max-speed"), std::string::npos) << err;
  // Switches before the file arguments must not swallow them.
  std::string out3;
  ASSERT_EQ(run_cli({"replay", "--print-reports", fx.ingress_path,
                     fx.egress_path},
                    &out3, &err),
            0)
      << err;
  EXPECT_NE(out3.find("replayed 5 frames\n"), std::string::npos) << out3;
}

// Records out of timestamp order: the horizon is the latest timestamp,
// not the last record's, so replay processes every frame and stats spans
// the earliest to the latest.
TEST(TraceCli, OutOfOrderCaptureReplaysToItsLatestTimestamp) {
  const std::string path = per_test_path(".ingress.pcap");
  {
    const std::vector<std::uint8_t> wire = serialized(net::make_tcp_packet(
        net::ipv4(10, 0, 0, 10), net::ipv4(10, 1, 0, 10), 5001, 5201, 1, 0,
        net::tcpflags::kAck, 1000, 65535));
    trace::PcapWriter writer(path);
    writer.write(100, wire);
    writer.write(units::seconds(5), wire);
    writer.write(200, wire);
  }
  std::string out, err;
  ASSERT_EQ(run_cli({"replay", path, "--runout-seconds", "1"}, &out, &err), 0)
      << err;
  EXPECT_NE(out.find("replayed 3 frames\nprocessed: 3, parse errors: 0"),
            std::string::npos)
      << out;
  ASSERT_EQ(run_cli({"stats", path}, &out, &err), 0) << err;
  EXPECT_NE(out.find("time span: 0.000000s .. 5.000000s\n"),
            std::string::npos)
      << out;
  ASSERT_EQ(run_cli({"info", path}, &out, &err), 0) << err;
  EXPECT_NE(out.find("time span: 0.000000s .. 5.000000s (duration "
                     "5.000000s)"),
            std::string::npos)
      << out;
}

TEST(TraceCli, ReplayInstallsAMeasurementProgram) {
  TwoPortFixture fx;
  const std::string good = temp_path("byte_counter.mpl.json");
  write_file(good, R"({
    "name": "byte_counter", "scope": "flow",
    "ops": [{"op": "add", "dst": 0, "field": "ipv4_total_len"}],
    "export": {"metric": "vm_throughput", "value_key": "throughput_bps",
               "value": "rate_bps", "register": 0,
               "samples_per_second": 2}})");
  std::string out, err;
  ASSERT_EQ(run_cli({"replay", fx.ingress_path, fx.egress_path,
                     "--runout-seconds", "1", "--program", good},
                    &out, &err),
            0)
      << err;
  EXPECT_NE(out.find("installed program 'byte_counter'"), std::string::npos)
      << out;

  // A missing file and a program that fails to compile both fail with
  // a diagnostic instead of replaying.
  EXPECT_EQ(run_cli({"replay", fx.ingress_path, "--program",
                     temp_path("never_written.mpl.json")},
                    &out, &err),
            2);
  EXPECT_NE(out.find("cannot read program file"), std::string::npos) << out;
  const std::string bad = temp_path("bad.mpl.json");
  write_file(bad, R"({"name": "x", "scope": "flow", "ops": []})");
  EXPECT_EQ(run_cli({"replay", fx.ingress_path, "--program", bad},
                    &out, &err),
            2);
  EXPECT_NE(out.find("bad.mpl.json: program:"), std::string::npos) << out;
}

TEST(TraceCli, MalformedInputsFailCleanly) {
  const std::string bad = temp_path("not_a_capture.pcap");
  write_file(bad, "garbage bytes, not a pcap file at all......");
  std::string out, err;
  EXPECT_EQ(run_cli({"info", bad}, &out, &err), 2);
  EXPECT_NE(err.find("unrecognized magic"), std::string::npos) << err;

  // Truncated mid-record: valid header, then a cut-off record.
  std::ostringstream cap;
  {
    trace::PcapWriter writer(cap);
    writer.write(1, std::vector<std::uint8_t>(40, 0));
  }
  const std::string trunc = temp_path("truncated.pcap");
  write_file(trunc, cap.str().substr(0, cap.str().size() - 10));
  EXPECT_EQ(run_cli({"stats", trunc}, &out, &err), 2);
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;

  EXPECT_EQ(run_cli({"info", temp_path("missing.pcap")}, &out, &err), 2);
  EXPECT_EQ(run_cli({"frobnicate"}, &out, &err), 2);
  EXPECT_EQ(run_cli({}, &out, &err), 2);
  EXPECT_EQ(run_cli({"replay"}, &out, &err), 2);
  EXPECT_EQ(run_cli({"info", "--bogus-flag", "x.pcap"}, &out, &err), 2);

  // A malformed numeric flag stops the command before it does any work
  // and is named in the diagnostic.
  TwoPortFixture fx;
  EXPECT_EQ(run_cli({"replay", fx.ingress_path, "--samples-per-second",
                     "abc", "--print-reports"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("malformed value for --samples-per-second: 'abc'"),
            std::string::npos)
      << err;
  EXPECT_EQ(out.find("replayed"), std::string::npos) << out;
  EXPECT_EQ(run_cli({"replay", fx.ingress_path, "--runout-seconds", "-1"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("--runout-seconds"), std::string::npos) << err;
  EXPECT_EQ(run_cli({"stats", fx.ingress_path, "--flows", "ten"}, &out,
                    &err),
            2);
  EXPECT_NE(err.find("--flows"), std::string::npos) << err;
  EXPECT_EQ(run_cli({"stats", fx.ingress_path, "--histogram", "rtt",
                     "--bins", "1e3"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("--bins"), std::string::npos) << err;
  // The histogram flags are read before the capture, so a bad pcap does
  // not hide a malformed one.
  EXPECT_EQ(run_cli({"stats", trunc, "--histogram", "rtt", "--hist-max-ms",
                     "x"},
                    &out, &err),
            2);
  EXPECT_NE(err.find("malformed value for --hist-max-ms: 'x'"),
            std::string::npos)
      << err;
  EXPECT_EQ(err.find("truncated"), std::string::npos) << err;
}

}  // namespace
