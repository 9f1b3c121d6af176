// sketch_scale — fidelity and throughput of the sketch subsystem.
//
// Part A (fidelity): a seeded lognormal latency stream through the
// fixed-bin Histogram and the DDSketch, p50/p95/p99 against the exact
// (nth_element) quantiles. The sketch's relative error must stay within
// its configured alpha — the bench exits non-zero if the bound is
// violated, making the accuracy claim a CI-checkable fact rather than a
// doc sentence.
//
// Part B (flow-table scale): 10k / 100k / 1M concurrent flows offered
// to the FlowTracker in registers mode vs cuckoo mode — promotion
// events/s, tracked flows, rejections, evictions. This is the
// "100k-1M concurrent flows" headline: the direct-indexed table strands
// slots behind hash collisions, the cuckoo table fills the full
// register space at the same event rate.
//
// Part C (pipeline fidelity): TAP-pair copies with seeded queueing
// delays through the full DataPlaneProgram; the switch-wide queue-delay
// histogram's quantiles against the exact ground truth of the injected
// delays.
//
// `--quick` (CI): trims the streams and omits the 1M-flow tier.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "p4/p4_switch.hpp"
#include "sim/simulation.hpp"
#include "sketch/ddsketch.hpp"
#include "sketch/histogram.hpp"
#include "telemetry/dataplane_program.hpp"
#include "telemetry/flow_tracker.hpp"

using namespace p4s;

namespace {

constexpr double kAlpha = 0.01;  // DDSketch relative-accuracy target

double exact_quantile(std::vector<double>& values, double q) {
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double rel_err(double approx, double exact) {
  return exact == 0.0 ? std::abs(approx) : std::abs(approx - exact) / exact;
}

// ---- Part A: sketch fidelity on a seeded latency stream ---------------

bool fidelity(bench::BenchReport& report, std::size_t samples) {
  sketch::HistogramConfig hc;
  hc.scale = sketch::HistogramConfig::Scale::kLog;
  hc.min = 1e3;  // 1 us
  hc.max = 1e9;  // 1 s
  hc.bins = 128;
  sketch::Histogram hist(hc);
  sketch::DdSketch sk(sketch::DdSketchConfig{kAlpha, 2048, 1.0});

  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(std::log(5e6), 1.2);
  std::vector<double> exact;
  exact.reserve(samples);
  bench::WallTimer timer;
  for (std::size_t i = 0; i < samples; ++i) {
    const double v = dist(rng);
    hist.add(v);
    sk.add(v);
    exact.push_back(v);
  }
  const double add_per_sec =
      2.0 * static_cast<double>(samples) / timer.elapsed_s();

  bool ok = true;
  for (const auto& [label, q] :
       {std::pair<const char*, double>{"p50", 0.50},
        std::pair<const char*, double>{"p95", 0.95},
        std::pair<const char*, double>{"p99", 0.99}}) {
    const double truth = exact_quantile(exact, q);
    const double sk_err = rel_err(sk.quantile(q), truth);
    const double hist_err = rel_err(hist.quantile(q), truth);
    report.metric(std::string("fidelity_") + label + "_rel_err", sk_err);
    report.metric(std::string("fidelity_hist_") + label + "_rel_err",
                  hist_err);
    std::printf("fidelity %s: exact %.4g ns, sketch err %.4f%%, "
                "histogram err %.2f%%\n",
                label, truth, sk_err * 100.0, hist_err * 100.0);
    // The DDSketch accuracy contract (alpha plus bucket-rounding slack).
    if (sk_err > kAlpha * 1.10) {
      std::fprintf(stderr,
                   "sketch_scale: %s rel err %.4f exceeds alpha %.4f\n",
                   label, sk_err, kAlpha);
      ok = false;
    }
  }
  report.metric("fidelity_samples", static_cast<std::uint64_t>(samples));
  report.metric("fidelity_adds_per_sec", add_per_sec);
  report.metric("fidelity_sketch_buckets",
                static_cast<std::uint64_t>(sk.bucket_count()));
  return ok;
}

// ---- Part B: flow-table scale -----------------------------------------

net::FiveTuple tuple_of(std::uint32_t i) {
  return net::FiveTuple{
      net::ipv4(10, static_cast<std::uint8_t>(i >> 16),
                static_cast<std::uint8_t>(i >> 8),
                static_cast<std::uint8_t>(i)),
      net::ipv4(10, 1, 0, 10), static_cast<std::uint16_t>(40000 + (i % 1000)),
      5201, 6};
}

void flow_table_tier(bench::BenchReport& report, const std::string& label,
                     const std::vector<net::FiveTuple>& tuples,
                     telemetry::FlowTableKind kind) {
  telemetry::FlowTracker::Config config;
  config.promotion_bytes = 1;  // promotion pressure on every new flow
  config.flow_table = kind;
  telemetry::FlowTracker tracker(config);

  const char* mode = telemetry::to_string(kind);
  SimTime now = units::seconds(1);
  bench::WallTimer timer;
  // Two passes: insert pressure over every flow, then steady-state
  // lookups revisiting each one.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& tuple : tuples) {
      now += 1000;  // 1 us between events
      tracker.on_data_packet(tuple, 1460, now);
    }
  }
  const double elapsed = timer.elapsed_s();
  const double events = 2.0 * static_cast<double>(tuples.size());
  const std::string prefix = std::string(mode) + "_" + label + "_";
  const std::uint64_t rejected = tracker.slot_collisions() +
                                 tracker.slot_exhausted() +
                                 tracker.insert_failures();
  report.metric(prefix + "events_per_sec", events / elapsed);
  report.metric(prefix + "tracked",
                static_cast<std::uint64_t>(tracker.active_flows()));
  report.metric(prefix + "rejected", rejected);
  report.metric(prefix + "evictions", tracker.evictions());
  std::printf("%s @ %s flows: %.3gM events/s, tracked %zu, rejected "
              "%llu, evictions %llu\n",
              mode, label.c_str(), events / elapsed / 1e6,
              tracker.active_flows(),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(tracker.evictions()));
}

// ---- Part C: pipeline queue-delay fidelity ----------------------------

bool pipeline_fidelity(bench::BenchReport& report, std::size_t pairs) {
  telemetry::DataPlaneProgram::Config config;
  telemetry::HistogramEngineConfig hc;
  hc.metric = telemetry::HistogramEngineConfig::Metric::kQueueDelay;
  hc.sketch_alpha = kAlpha;
  config.histograms.push_back(hc);
  telemetry::DataPlaneProgram program(config);
  sim::Simulation sim;
  p4::P4Switch sw(sim, "bench");
  sw.load_program(program);

  std::mt19937_64 rng(13);
  std::lognormal_distribution<double> delay_dist(std::log(50e3), 0.8);
  std::vector<double> exact;
  exact.reserve(pairs);
  bench::WallTimer timer;
  SimTime t = units::milliseconds(1);
  std::uint16_t ip_id = 1;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto delay =
        static_cast<SimTime>(std::max(1.0, delay_dist(rng)));
    exact.push_back(static_cast<double>(delay));
    net::Packet pkt = net::make_tcp_packet(
        net::ipv4(10, 0, static_cast<std::uint8_t>(i >> 8),
                  static_cast<std::uint8_t>(i)),
        net::ipv4(10, 1, 0, 10), 40000, 5201,
        static_cast<std::uint32_t>(1000 + i), 0, net::tcpflags::kAck, 512,
        1 << 16);
    pkt.ip.id = ip_id++;
    sim.at(t, [&sw, pkt]() { sw.on_mirrored(pkt, net::MirrorPoint::kIngress); });
    sim.at(t + delay,
           [&sw, pkt]() { sw.on_mirrored(pkt, net::MirrorPoint::kEgress); });
    t += units::microseconds(10);
  }
  sim.run();
  const double copies_per_sec =
      2.0 * static_cast<double>(pairs) / timer.elapsed_s();

  const auto& engine =
      *program.engines_of<telemetry::HistogramEngine>().at(0);
  bool ok = engine.samples() == pairs;
  if (!ok) {
    std::fprintf(stderr, "sketch_scale: pipeline matched %llu of %zu pairs\n",
                 static_cast<unsigned long long>(engine.samples()), pairs);
  }
  for (const auto& [label, q] :
       {std::pair<const char*, double>{"p50", 0.50},
        std::pair<const char*, double>{"p99", 0.99}}) {
    const double truth = exact_quantile(exact, q);
    const double err = rel_err(engine.quantile_ns(q), truth);
    report.metric(std::string("pipeline_queue_") + label + "_rel_err", err);
    std::printf("pipeline queue %s: exact %.4g ns, err %.4f%%\n", label,
                truth, err * 100.0);
    if (err > kAlpha * 1.10) {
      std::fprintf(stderr,
                   "sketch_scale: pipeline %s rel err %.4f exceeds alpha\n",
                   label, err);
      ok = false;
    }
  }
  report.metric("pipeline_pairs", static_cast<std::uint64_t>(pairs));
  report.metric("pipeline_copies_per_sec", copies_per_sec);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  bench::WallTimer wall;
  bench::BenchReport report("sketch_scale");

  bool ok = fidelity(report, quick ? 100'000 : 500'000);

  std::vector<std::pair<std::string, std::size_t>> tiers = {
      {"10k", 10'000}, {"100k", 100'000}};
  if (!quick) tiers.emplace_back("1m", 1'000'000);
  std::vector<net::FiveTuple> tuples;
  for (const auto& [label, flows] : tiers) {
    tuples.clear();
    tuples.reserve(flows);
    for (std::uint32_t i = 0; i < flows; ++i) tuples.push_back(tuple_of(i));
    flow_table_tier(report, label, tuples,
                    telemetry::FlowTableKind::kRegisters);
    flow_table_tier(report, label, tuples, telemetry::FlowTableKind::kCuckoo);
  }

  ok = pipeline_fidelity(report, quick ? 20'000 : 100'000) && ok;

  report.wall_time_s(wall.elapsed_s());
  report.meta("quick", util::Json(quick));
  report.meta("alpha", util::Json(kAlpha));
  report.meta("seed", util::Json(7));
  if (!report.write()) return 1;
  if (!ok) {
    std::fprintf(stderr, "sketch_scale: fidelity bound violated\n");
    return 1;
  }
  return 0;
}
