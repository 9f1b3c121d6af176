// Pcap-decoding robustness: seeded bit flips, truncations and span moves
// of the committed fig9 captures go through trace::PcapReader — the
// decoder in front of trace replay. Every mutation must either raise
// PcapError or load; a loaded trace must then go through analyze() and a
// replay into a fresh P4 switch, whose parse errors equal the frames
// analyze() calls undecodable. This suite runs under the ASan/UBSan CI
// job with several P4S_SEED values.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mutate.hpp"
#include "p4/p4_switch.hpp"
#include "sim/simulation.hpp"
#include "trace/pcap.hpp"
#include "trace/trace_replayer.hpp"

using namespace p4s;

namespace {

// The global header and first `records` records of a committed capture.
std::string head_of(const std::string& name, int records) {
  trace::PcapReader reader(std::string(P4S_TRACE_DATA_DIR) + "/" + name);
  std::ostringstream out;
  trace::PcapWriter writer(out, reader.info().snaplen);
  for (int i = 0; i < records; ++i) {
    const auto rec = reader.next();
    EXPECT_TRUE(rec.has_value()) << name;
    writer.write(rec->ts, rec->bytes, rec->orig_len);
  }
  return out.str();
}

// Load one port's capture from memory, as TraceReplayer::from_files does.
trace::TraceReplayer load(const std::string& bytes, net::MirrorPoint point) {
  std::istringstream in(bytes);
  trace::PcapReader reader(in);
  std::vector<trace::TraceFrame> frames;
  while (auto rec = reader.next()) {
    frames.push_back({rec->ts, point, rec->orig_len, std::move(rec->bytes)});
  }
  return trace::TraceReplayer::from_frames(std::move(frames));
}

TEST(PcapRobustness, MutatedCapturesLoadOrThrowPcapError) {
  const std::pair<std::string, net::MirrorPoint> ports[] = {
      {head_of("fig9.ingress.pcap", 150), net::MirrorPoint::kIngress},
      {head_of("fig9.egress.pcap", 150), net::MirrorPoint::kEgress}};
  test::Mutator m;
  int refused = 0;
  int loaded = 0;
  for (int round = 0; round < 300; ++round) {
    const auto& [good, point] = ports[round % 2];
    std::string bytes = good;
    switch (round % 3) {
      case 0:
        for (std::size_t n = 1 + m.below(3); n > 0; --n) m.flip_bit(bytes);
        break;
      case 1:
        m.truncate(bytes);
        break;
      default:
        m.move_span(bytes, 64);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    try {
      const trace::TraceReplayer trace = load(bytes, point);
      ++loaded;
      const auto s = trace.analyze();
      sim::Simulation sim;
      p4::P4Switch sw(sim, "pcap-battery");
      trace.replay(sim, sw);
      EXPECT_EQ(s.undecodable, sw.parse_errors());
      EXPECT_EQ(s.frames - s.undecodable, sw.processed_pkts());
    } catch (const trace::PcapError&) {
      ++refused;
    }
  }
  // The battery reaches both outcomes.
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);
}

}  // namespace
