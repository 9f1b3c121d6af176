// Parallel sharded fabric execution: determinism battery + runtime
// unit tests.
//
//   * Byte-identity: the same seeded scenario produces byte-identical
//     Report_v1 series, archive contents and pcap captures at
//     parallel = 1 / 2 / 4 / 8 — the serial path IS the specification.
//   * The committed single-switch golden (fig9.reports.txt) holds
//     unchanged under parallel execution.
//   * Outputs are invariant under randomized worker scheduling (the
//     ShardPool jitter knob), run under TSan in CI.
//   * BoundaryQueue SPSC ordering/wraparound and ShardPool
//     grant/watermark/failure protocol in isolation, including a stress
//     run of the barrier's blocking path under a hang watchdog, and the
//     FabricExecutor's full-inbox push path under the same watchdog.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fabric_executor.hpp"
#include "core/monitoring_system.hpp"
#include "sim/boundary_queue.hpp"
#include "sim/shard_pool.hpp"

namespace p4s {
namespace {

using core::MonitoredSwitchConfig;
using core::MonitoringSystem;
using core::MonitoringSystemConfig;
using core::TapPoint;
using units::seconds;

const std::string kGoldenReports =
    std::string(P4S_TRACE_DATA_DIR) + "/fig9.reports.txt";

struct Collector : cp::ReportSink {
  std::vector<std::string> lines;
  cp::ReportSink* next = nullptr;  // tee: keep the transport path live
  void on_report(const util::Json& report) override {
    lines.push_back(report.dump());
    if (next != nullptr) next->on_report(report);
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// The 4-switch determinism scenario: every tap point monitored, three
// concurrent transfers crossing them, 2 samples/s.
MonitoringSystemConfig four_switch_scenario(std::size_t parallel,
                                            std::uint64_t jitter_seed = 0) {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 42;
  config.parallel = parallel;
  config.scheduling_jitter_seed = jitter_seed;
  config.switches = {
      MonitoredSwitchConfig{"core", TapPoint::kCoreBottleneck},
      MonitoredSwitchConfig{"ext0", TapPoint::kWanExt0},
      MonitoredSwitchConfig{"ext1", TapPoint::kWanExt1},
      MonitoredSwitchConfig{"ext2", TapPoint::kWanExt2},
  };
  return config;
}

struct RunOutput {
  // Per-site Report_v1 series, in emission order.
  std::vector<std::vector<std::string>> site_reports;
  // Every archived document across all indices, in archive order.
  std::vector<std::string> archived;
  std::uint64_t total_mirrored = 0;
  std::uint64_t total_processed = 0;
};

RunOutput run_four_switch(std::size_t parallel,
                          std::uint64_t jitter_seed = 0) {
  MonitoringSystem system(four_switch_scenario(parallel, jitter_seed));
  std::vector<Collector> sites(system.switch_count());
  // Tee each site's series out for isolated comparison while the
  // shared transport -> archiver path keeps running underneath.
  for (std::size_t i = 0; i < system.switch_count(); ++i) {
    auto& plane = system.monitored_switch(i).control_plane();
    sites[i].next = plane.sink();
    plane.set_sink(&sites[i]);
  }
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  system.add_transfer(2).start_at(seconds(4));
  system.run_until(seconds(8));

  RunOutput out;
  for (auto& site : sites) out.site_reports.push_back(std::move(site.lines));
  auto& archiver = system.psonar().archiver();
  for (const auto& index : archiver.indices()) {
    for (const auto& doc : archiver.search(index)) {
      out.archived.push_back(doc.dump());
    }
  }
  const auto stats = system.fabric_stats();
  out.total_mirrored = stats.mirrored;
  out.total_processed = stats.processed;
  return out;
}

void expect_same_output(const RunOutput& expected, const RunOutput& actual,
                        const std::string& label) {
  ASSERT_EQ(expected.site_reports.size(), actual.site_reports.size());
  for (std::size_t s = 0; s < expected.site_reports.size(); ++s) {
    ASSERT_EQ(expected.site_reports[s].size(), actual.site_reports[s].size())
        << label << ": site " << s << " report count diverged";
    for (std::size_t i = 0; i < expected.site_reports[s].size(); ++i) {
      ASSERT_EQ(expected.site_reports[s][i], actual.site_reports[s][i])
          << label << ": site " << s << " report " << i;
    }
  }
  ASSERT_EQ(expected.archived, actual.archived) << label << ": archive";
  EXPECT_EQ(expected.total_mirrored, actual.total_mirrored) << label;
  EXPECT_EQ(expected.total_processed, actual.total_processed) << label;
}

// The tentpole acceptance: one seed, four switches, worker counts
// 1/2/4/8 — byte-identical Report_v1 series and archive contents.
TEST(ParallelFabric, ByteIdenticalOutputsAcrossWorkerCounts) {
  const RunOutput serial = run_four_switch(1);
  ASSERT_FALSE(serial.archived.empty());
  for (const auto& site : serial.site_reports) ASSERT_FALSE(site.empty());
  for (const std::size_t workers : {2u, 4u, 8u}) {
    const RunOutput parallel = run_four_switch(workers);
    expect_same_output(serial, parallel,
                       "parallel=" + std::to_string(workers));
  }
}

// Same battery under randomized worker scheduling: shard interleavings
// vary wildly, outputs must not. Runs under TSan in CI.
TEST(ParallelFabric, DeterministicUnderSchedulingJitter) {
  const RunOutput serial = run_four_switch(1);
  for (const std::uint64_t jitter : {0x5EEDull, 0xBADC0FFEEull}) {
    const RunOutput chaotic = run_four_switch(4, jitter);
    expect_same_output(serial, chaotic,
                       "jitter=" + std::to_string(jitter));
  }
}

// The committed single-switch golden series survives parallel execution
// untouched: the legacy deployment (one untagged switch) at parallel=2
// reproduces fig9.reports.txt byte for byte.
TEST(ParallelFabric, GoldenSeriesUnchangedUnderParallel) {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  config.parallel = 2;
  MonitoringSystem system(config);
  ASSERT_TRUE(system.parallel_fabric());
  Collector collector;
  system.control_plane().set_sink(&collector);
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  system.add_transfer(2).start_at(seconds(5));
  system.run_until(seconds(9));

  const auto golden = read_lines(kGoldenReports);
  ASSERT_FALSE(golden.empty());
  ASSERT_EQ(golden.size(), collector.lines.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    ASSERT_EQ(golden[i], collector.lines[i]) << "report " << i;
  }
}

// Pcap captures are produced on the shard clock in parallel mode; the
// files must still be byte-identical to the serial run's.
TEST(ParallelFabric, PcapCapturesByteIdenticalUnderParallel) {
  auto run_captured = [](std::size_t parallel, const std::string& base) {
    MonitoringSystemConfig config;
    config.topology.bottleneck_bps = units::mbps(2);
    config.seed = 1;
    config.parallel = parallel;
    config.trace.capture = true;
    config.trace.path_base = base;
    MonitoringSystem system(config);
    system.psonar().psconfig().execute(
        "psconfig config-P4 --samples_per_second 2");
    system.start();
    system.add_transfer(0).start_at(seconds(1));
    system.add_transfer(1).start_at(seconds(2));
    system.run_until(seconds(6));
    system.trace_capture().flush();
  };
  const std::string serial_base = ::testing::TempDir() + "pfab-serial";
  const std::string parallel_base = ::testing::TempDir() + "pfab-par";
  run_captured(1, serial_base);
  run_captured(4, parallel_base);
  for (const auto point :
       {net::MirrorPoint::kIngress, net::MirrorPoint::kEgress}) {
    const std::string serial_pcap =
        read_file(trace::TraceCapture::port_path(serial_base, point));
    const std::string parallel_pcap =
        read_file(trace::TraceCapture::port_path(parallel_base, point));
    ASSERT_FALSE(serial_pcap.empty());
    EXPECT_EQ(serial_pcap, parallel_pcap)
        << "capture diverged at point "
        << static_cast<int>(point);
  }
}

// fabric_stats() is the merge-barrier snapshot: totals taken mid-run
// must be internally consistent (never torn) at any worker count.
TEST(ParallelFabric, FabricStatsSnapshotsAreConsistentMidRun) {
  MonitoringSystem system(four_switch_scenario(4));
  system.psonar().psconfig().execute(
      "psconfig config-P4 --samples_per_second 2");
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  for (int step = 1; step <= 6; ++step) {
    system.run_until(seconds(step));
    const auto stats = system.fabric_stats();
    ASSERT_EQ(stats.sites.size(), 4u);
    std::uint64_t mirrored = 0, processed = 0, errors = 0, reports = 0;
    for (const auto& site : stats.sites) {
      mirrored += site.mirrored;
      processed += site.processed;
      errors += site.parse_errors;
      reports += site.reports_emitted;
    }
    EXPECT_EQ(stats.mirrored, mirrored);
    EXPECT_EQ(stats.processed, processed);
    EXPECT_EQ(stats.parse_errors, errors);
    EXPECT_EQ(stats.reports_emitted, reports);
    EXPECT_EQ(stats.workers, system.fabric_executor().worker_count());
    // Conservation per site, exact: every copy mirrored by the barrier
    // reaches its parser one TAP latency later, processed or rejected.
    system.run_until(stats.at + system.config().tap_latency);
    const auto after_tap = system.fabric_stats();
    for (std::size_t i = 0; i < stats.sites.size(); ++i) {
      const auto& site = after_tap.sites[i];
      EXPECT_EQ(site.processed + site.parse_errors, stats.sites[i].mirrored)
          << site.id;
    }
  }
  const auto end = system.fabric_stats();
  EXPECT_GT(end.processed, 0u);
}

// ---------- Runtime units: BoundaryQueue ----------

TEST(BoundaryQueue, OrderedPushPopAcrossWraparound) {
  sim::BoundaryQueue<std::uint64_t> q(8);
  ASSERT_EQ(q.capacity(), 8u);
  std::uint64_t next = 0;
  std::uint64_t expected = 0;
  for (int round = 0; round < 100; ++round) {
    while (q.try_push(next)) ++next;        // fill
    EXPECT_EQ(q.size_approx(), q.capacity());
    for (int i = 0; i < 5; ++i) {           // partially drain, in order
      std::uint64_t* front = q.front();
      ASSERT_NE(front, nullptr);
      EXPECT_EQ(*front, expected++);
      q.pop();
    }
  }
}

TEST(BoundaryQueue, SpscStressPreservesSequence) {
  sim::BoundaryQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&q]() {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!q.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  while (expected < kCount) {
    std::uint64_t* front = q.front();
    if (front == nullptr) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_EQ(*front, expected);
    ++expected;
    q.pop();
  }
  producer.join();
  EXPECT_EQ(q.front(), nullptr);
}

// ---------- Runtime units: ShardPool ----------

struct CountingShard : sim::ShardPool::Shard {
  std::atomic<std::uint64_t> executed_to{0};
  std::uint64_t calls = 0;  // worker-owned
  void advance_to(SimTime grant) override {
    ++calls;
    // Grants must be monotonic from the shard's point of view.
    ASSERT_GE(grant, executed_to.load(std::memory_order_relaxed));
    executed_to.store(grant, std::memory_order_relaxed);
  }
};

TEST(ShardPool, BarrierWaitsForWatermark) {
  sim::ShardPool pool(sim::ShardPool::Config{2, 0});
  CountingShard shards[3];
  for (auto& s : shards) pool.add_shard(s);
  pool.start();
  EXPECT_LE(pool.worker_count(), 2u);
  for (SimTime t : {1000u, 5000u, 5000u, 90000u}) {
    pool.barrier_all(t);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(pool.watermark(i), t);
      EXPECT_GE(shards[i].executed_to.load(), t);
    }
  }
  // Smaller grants are ignored: the watermark never regresses.
  pool.barrier_all(10);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_GE(pool.watermark(i), 90000u);
  pool.stop();
}

struct ThrowingShard : sim::ShardPool::Shard {
  void advance_to(SimTime grant) override {
    if (grant >= 500) throw std::runtime_error("shard exploded");
  }
};

TEST(ShardPool, WorkerFailureSurfacesAtBarrier) {
  sim::ShardPool pool(sim::ShardPool::Config{1, 0});
  ThrowingShard shard;
  pool.add_shard(shard);
  pool.start();
  pool.barrier_all(100);  // healthy
  EXPECT_FALSE(pool.failed());
  EXPECT_THROW(pool.barrier_all(1000), std::runtime_error);
  EXPECT_TRUE(pool.failed());
  pool.stop();
}

// Holds grant g until the main thread has given up spinning in its g-th
// barrier and entered the blocking path (barrier_waits() == g), so the
// worker publishes its watermark exactly while main arms its wait — the
// window in which a lost wakeup would hang the barrier forever.
struct SlowPathShard : sim::ShardPool::Shard {
  const sim::ShardPool* pool = nullptr;
  void advance_to(SimTime grant) override {
    while (pool->barrier_waits() < grant) std::this_thread::yield();
  }
};

// A lost wakeup parks a thread for good; fail the test process instead
// of hanging it once the guarded loop has made no progress for ten
// seconds. `what` names the step that hung, e.g. "ShardPool barrier".
class HangWatchdog {
 public:
  explicit HangWatchdog(const char* what)
      : thread_([this, what] { watch(what); }) {}
  ~HangWatchdog() {
    done_.store(true);
    thread_.join();
  }
  HangWatchdog(const HangWatchdog&) = delete;
  HangWatchdog& operator=(const HangWatchdog&) = delete;

  /// Steps completed so far.
  void progress(std::uint64_t completed) { completed_.store(completed); }

 private:
  void watch(const char* what) {
    std::uint64_t seen = 0;
    auto last_progress = std::chrono::steady_clock::now();
    while (!done_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      const std::uint64_t now_completed = completed_.load();
      if (now_completed != seen) {
        seen = now_completed;
        last_progress = std::chrono::steady_clock::now();
      } else if (std::chrono::steady_clock::now() - last_progress >
                 std::chrono::seconds(10)) {
        std::fprintf(stderr, "%s %llu hung: lost wakeup\n", what,
                     static_cast<unsigned long long>(seen + 1));
        std::_Exit(1);
      }
    }
  }

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> done_{false};
  std::thread thread_;  // last: starts once the flags above exist
};

TEST(ShardPool, BlockingBarrierPathNeverLosesAWakeup) {
  constexpr SimTime kBarriers = 100'000;
  sim::ShardPool pool(sim::ShardPool::Config{1, /*jitter seed=*/7});
  SlowPathShard shard;
  shard.pool = &pool;
  pool.add_shard(shard);
  pool.start();

  {
    HangWatchdog watchdog("ShardPool barrier");
    for (SimTime grant = 1; grant <= kBarriers; ++grant) {
      pool.barrier(0, grant);
      watchdog.progress(grant);
    }
  }
  // Every barrier took the blocking path.
  EXPECT_EQ(pool.barrier_waits(), kBarriers);
  EXPECT_EQ(pool.watermark(0), kBarriers);
  pool.stop();
}

// ---------- Runtime units: FabricExecutor ----------

// Records every delivery and yields after each, so the main thread fills
// the shard's inbox faster than the worker drains it.
struct YieldingSink : net::MirrorSink {
  explicit YieldingSink(sim::Simulation& s) : clock(s) {}
  void on_mirrored_bytes(std::span<const std::uint8_t>, net::MirrorPoint,
                         std::uint32_t wire_len) override {
    seen.emplace_back(wire_len, clock.now());
    std::this_thread::yield();
  }
  sim::Simulation& clock;
  std::vector<std::pair<std::uint32_t, SimTime>> seen;  // worker owned
};

TEST(FabricExecutor, FullInboxPushBlocksUntilTheWorkerDrains) {
  // Nothing runs the main timeline, so no grant pump fires: the only
  // grants the worker ever sees are the ones a full-inbox push
  // publishes, and they alone must wake it. Four frames share each
  // delivery nanosecond.
  constexpr std::uint32_t kFrames = 3 * 8192 + 5;
  constexpr SimTime kFirstAt = 1000;
  auto at = [](std::uint32_t i) { return kFirstAt + i / 4; };
  sim::Simulation main_sim;
  sim::Simulation pipeline_sim;
  YieldingSink sink(pipeline_sim);
  core::FabricExecutor fabric(main_sim, core::FabricExecutor::Config{1, 0});
  const std::size_t shard = fabric.add_switch(pipeline_sim, sink);
  fabric.start();

  {
    HangWatchdog watchdog("FabricExecutor push");
    net::MirrorFrame frame{};
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      frame.at = at(i);
      frame.wire_len = i;  // tags the push order
      fabric.boundary(shard).push(frame);
      watchdog.progress(i + 1);
    }
    fabric.barrier_all(at(kFrames - 1));
    watchdog.progress(kFrames + 1);
  }

  EXPECT_GT(fabric.blocked_pushes(), 0u);
  ASSERT_EQ(sink.seen.size(), kFrames);
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(sink.seen[i].first, i) << "frame delivered out of order";
    ASSERT_EQ(sink.seen[i].second, at(i)) << "frame " << i;
  }
  fabric.stop();
}

}  // namespace
}  // namespace p4s
