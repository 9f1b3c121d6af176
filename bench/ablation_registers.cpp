// Ablation (DESIGN.md §5): sizing of the eACK signature register and the
// count-min sketch.
//
// The eACK table (Chen et al.) maps (reversed flow ID, expected ACK) ->
// timestamp. Undersizing it causes evictions (a newer packet overwrites a
// parked timestamp before its ACK returns) and therefore lost RTT
// samples. This bench drives the same synthetic flow mix through
// RttLossEngine instances of different sizes and reports match rates —
// justifying the default 2^16.
//
// The CMS ablation varies width and reports how many *short* flows get
// falsely promoted to register slots under heavy flow churn.
#include <cstdio>
#include <vector>

#include "bench_json.hpp"
#include "sim/random.hpp"
#include "telemetry/flow_tracker.hpp"
#include "telemetry/rtt_loss.hpp"
#include "p4/hash.hpp"

using namespace p4s;

namespace {

void eack_sizing() {
  std::printf("== eACK register sizing (RTT sample match rate) ==\n");
  std::printf("%-12s %12s %12s %12s %12s\n", "slots", "stores", "matches",
              "evictions", "match_rate");
  for (std::size_t slots : {1u << 10, 1u << 12, 1u << 14, 1u << 16,
                            1u << 18}) {
    telemetry::RttLossEngine engine(slots);
    sim::Rng rng(42);
    // 64 concurrent flows, each with a 100-packet-deep window: packets
    // are sent (eACK stored), then ACKed after the window's worth of
    // other traffic — the in-flight population a 250 Mbps x 100 ms path
    // sustains.
    constexpr int kFlows = 64;
    constexpr int kWindow = 100;
    constexpr int kRounds = 2000;
    struct Pending {
      std::uint32_t ack_flow_id;
      std::uint16_t slot;
      std::uint32_t eack;
    };
    std::vector<std::vector<Pending>> pending(kFlows);
    std::vector<std::uint32_t> seq(kFlows, 1);
    std::uint64_t stores = 0;
    SimTime now = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (int f = 0; f < kFlows; ++f) {
        now += 100;
        net::FiveTuple t{net::ipv4(10, 0, 0, 1),
                         net::ipv4(10, 1, 0, static_cast<std::uint8_t>(f)),
                         40000, 5201, 6};
        const std::uint32_t rev_id = p4::flow_hash(t.reversed());
        const auto slot = static_cast<std::uint16_t>(
            p4::flow_hash(t) & telemetry::kFlowSlotMask);
        engine.on_data_packet({slot, rev_id, seq[f], 1460}, now);
        ++stores;
        pending[f].push_back({rev_id, slot, seq[f] + 1460});
        seq[f] += 1460;
        if (pending[f].size() >= kWindow) {
          const Pending p = pending[f].front();
          pending[f].erase(pending[f].begin());
          now += 100;
          engine.on_ack_packet({p.ack_flow_id, p.slot, p.eack}, now);
        }
      }
    }
    const double rate =
        static_cast<double>(engine.eack_matches()) /
        static_cast<double>(engine.eack_matches() + engine.eack_misses());
    std::printf("%-12zu %12llu %12llu %12llu %11.1f%%\n", slots,
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(engine.eack_matches()),
                static_cast<unsigned long long>(engine.eack_evictions()),
                rate * 100.0);
  }
}

void cms_sizing() {
  std::printf("\n== CMS width sizing (false long-flow promotions) ==\n");
  std::printf("%-12s %16s %16s\n", "width", "short_promoted",
              "long_promoted");
  for (std::size_t width : {256u, 1024u, 4096u, 16384u}) {
    telemetry::FlowTracker::Config config;
    config.cms_width = width;
    config.promotion_bytes = 100 * 1024;
    telemetry::FlowTracker tracker(config);
    sim::Rng rng(7);
    SimTime now = 0;
    int short_promoted = 0;
    int long_promoted = 0;
    // 4000 short flows (10 pkts = ~14.6 KB each, far below threshold)
    // interleaved with 16 long flows (200 pkts each).
    for (int round = 0; round < 200; ++round) {
      for (int s = 0; s < 20; ++s) {
        net::FiveTuple t{net::ipv4(172, 16, 0, 1),
                         net::ipv4(172, 16, 1, 1),
                         static_cast<std::uint16_t>(
                             1024 + rng.next_below(60000)),
                         443, 6};
        bool promoted = false;
        for (int p = 0; p < 10; ++p) {
          now += 1000;
          if (tracker.on_data_packet(t, 1460, now).has_value()) {
            promoted = true;
          }
        }
        if (promoted) ++short_promoted;
      }
      for (int f = 0; f < 16; ++f) {
        net::FiveTuple t{net::ipv4(10, 0, 0, 1),
                         net::ipv4(10, 1, 0, static_cast<std::uint8_t>(f)),
                         40000, 5201, 6};
        now += 1000;
        if (round == 199 &&
            tracker.on_data_packet(t, 1460, now).has_value()) {
          ++long_promoted;
        } else {
          tracker.on_data_packet(t, 1460, now);
        }
      }
    }
    std::printf("%-12zu %16d %16d (of 16)\n", width, short_promoted,
                long_promoted);
  }
}

}  // namespace

int main() {
  bench::WallTimer wall;
  std::printf("Register-sizing ablation (DESIGN.md design decision *)\n\n");
  eack_sizing();
  cms_sizing();
  bench::BenchReport report("ablation_registers");
  report.wall_time_s(wall.elapsed_s());
  return report.write() ? 0 : 1;
}
