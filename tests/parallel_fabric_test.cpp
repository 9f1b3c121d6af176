// Parallel sharded fabric execution: determinism battery + runtime
// unit tests.
//
//   * Byte-identity: the same seeded scenario produces byte-identical
//     Report_v1 series, archive contents and pcap captures at
//     parallel = 1 / 2 / 4 / 8, and they match the committed digests
//     of the serial per-copy-event path that preceded the executor —
//     that reference, kept as data, is the specification.
//   * The committed single-switch golden (fig9.reports.txt) holds
//     unchanged under parallel execution.
//   * Outputs are invariant under randomized worker scheduling (the
//     ShardPool jitter knob), run under TSan in CI.
//   * BoundaryQueue SPSC ordering/wraparound and ShardPool
//     grant/watermark/failure protocol in isolation, including a stress
//     run of the barrier's blocking path under a hang watchdog, and the
//     FabricExecutor's full-inbox push path under the same watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <span>
#include <string>
#include <string_view>
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

// 64-bit FNV-1a, continuing from `h`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Every archived document across all indices, in archive order.
std::vector<std::string> archived_docs(MonitoringSystem& system) {
  std::vector<std::string> docs;
  auto& archiver = system.psonar().archiver();
  for (const auto& index : archiver.indices()) {
    for (const auto& doc : archiver.search(index)) docs.push_back(doc.dump());
  }
  return docs;
}

// FNV-1a over the documents, one line each.
std::uint64_t archive_digest(const std::vector<std::string>& docs) {
  std::uint64_t digest = fnv1a("");
  for (const std::string& doc : docs) digest = fnv1a(doc + "\n", digest);
  return digest;
}

// The 4-switch determinism scenario: every tap point monitored, three
// concurrent transfers crossing them, 2 samples/s. A non-empty
// `capture_base` also captures every site's mirror streams to pcap.
MonitoringSystemConfig four_switch_scenario(
    std::size_t parallel, std::uint64_t jitter_seed = 0,
    const std::string& capture_base = "") {
  MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 42;
  config.parallel = parallel;
  config.scheduling_jitter_seed = jitter_seed;
  config.trace.capture = !capture_base.empty();
  config.trace.path_base = capture_base;
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

RunOutput run_scenario(const MonitoringSystemConfig& config) {
  MonitoringSystem system(config);
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
  out.archived = archived_docs(system);
  const auto stats = system.fabric_stats();
  out.total_mirrored = stats.mirrored;
  out.total_processed = stats.processed;
  for (const auto& site : system.monitored_switches()) {
    if (site->capturing()) site->trace_capture().flush();
  }
  return out;
}

RunOutput run_four_switch(std::size_t parallel,
                          std::uint64_t jitter_seed = 0,
                          const std::string& capture_base = "") {
  return run_scenario(
      four_switch_scenario(parallel, jitter_seed, capture_base));
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

// The serial reference kept as data: the archive digest and the eight
// pcap hashes (four sites x ingress/egress) of the four-switch scenario,
// generated when mirror copies were still delivered by per-copy events
// on the main timeline. Every worker count and a jittered schedule must
// reproduce them byte for byte.
TEST(ParallelFabric, FourSwitchRunMatchesCommittedSerialDigests) {
  constexpr std::uint64_t kArchiveDigest = 0x3d2d0302b9bbc9a0ull;
  // {ingress, egress} per site. The three WAN sites tap one switch, so
  // their ingress streams are the same.
  constexpr std::uint64_t kPcapDigests[4][2] = {
      {0xbfa22d5e42568799ull, 0xf89d0daa14285625ull},  // core
      {0xaeb0217d9a16d2e6ull, 0x3b435d2f5d7403e0ull},  // ext0
      {0xaeb0217d9a16d2e6ull, 0x5dd1b6c3e85a5827ull},  // ext1
      {0xaeb0217d9a16d2e6ull, 0x100151bff4439d48ull},  // ext2
  };
  const std::string base =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::vector<std::pair<std::size_t, std::uint64_t>> runs = {
      {1, 0}, {2, 0}, {4, 0}, {8, 0}, {4, 0x5EEDull}};
  for (const auto& [parallel, jitter] : runs) {
    const std::string label = "parallel=" + std::to_string(parallel) +
                              " jitter=" + std::to_string(jitter);
    const std::string run_base = base + "-" + std::to_string(parallel) +
                                 "-" + std::to_string(jitter);
    const RunOutput out = run_four_switch(parallel, jitter, run_base);
    const std::uint64_t archive = archive_digest(out.archived);
    EXPECT_EQ(archive, kArchiveDigest)
        << label << ": archive digest 0x" << std::hex << archive;
    const char* const sites[4] = {"", ".ext0", ".ext1", ".ext2"};
    for (std::size_t s = 0; s < 4; ++s) {
      for (const auto point :
           {net::MirrorPoint::kIngress, net::MirrorPoint::kEgress}) {
        const std::string path =
            trace::TraceCapture::port_path(run_base + sites[s], point);
        const std::uint64_t digest = fnv1a(read_file(path));
        EXPECT_EQ(digest, kPcapDigests[s][static_cast<int>(point)])
            << label << ": " << path << " digest 0x" << std::hex << digest;
        std::remove(path.c_str());
      }
    }
  }
}

// Several sites on one tapped port: two on the core bottleneck, two on
// WAN access port 0 and one on port 1. Each site must see exactly the
// mirror stream it would see alone on that port, at any worker count.
// The digests were generated when every site still had a TAP pair of
// its own.
TEST(ParallelFabric, SitesSharingATappedPortMatchCommittedDigests) {
  constexpr std::uint64_t kArchiveDigest = 0x46b10b9031cd0485ull;
  // {ingress, egress} per site, in site order: the same streams as the
  // four-switch run's sites on those ports.
  constexpr std::uint64_t kPcapDigests[5][2] = {
      {0xbfa22d5e42568799ull, 0xf89d0daa14285625ull},  // core-a
      {0xbfa22d5e42568799ull, 0xf89d0daa14285625ull},  // core-b
      {0xaeb0217d9a16d2e6ull, 0x3b435d2f5d7403e0ull},  // ext0-a
      {0xaeb0217d9a16d2e6ull, 0x3b435d2f5d7403e0ull},  // ext0-b
      {0xaeb0217d9a16d2e6ull, 0x5dd1b6c3e85a5827ull},  // ext1
  };
  const std::string base =
      ::testing::TempDir() +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  for (const std::size_t parallel : {1u, 2u}) {
    const std::string label = "parallel=" + std::to_string(parallel);
    const std::string run_base = base + "-" + std::to_string(parallel);
    MonitoringSystemConfig config = four_switch_scenario(parallel, 0, run_base);
    config.switches = {
        MonitoredSwitchConfig{"core-a", TapPoint::kCoreBottleneck, {}},
        MonitoredSwitchConfig{"core-b", TapPoint::kCoreBottleneck, {}},
        MonitoredSwitchConfig{"ext0-a", TapPoint::kWanExt0, {}},
        MonitoredSwitchConfig{"ext0-b", TapPoint::kWanExt0, {}},
        MonitoredSwitchConfig{"ext1", TapPoint::kWanExt1, {}},
    };
    const RunOutput out = run_scenario(config);
    const std::uint64_t archive = archive_digest(out.archived);
    EXPECT_EQ(archive, kArchiveDigest)
        << label << ": archive digest 0x" << std::hex << archive;
    const char* const sites[5] = {"", ".core-b", ".ext0-a", ".ext0-b",
                                  ".ext1"};
    for (std::size_t s = 0; s < 5; ++s) {
      for (const auto point :
           {net::MirrorPoint::kIngress, net::MirrorPoint::kEgress}) {
        const std::string path =
            trace::TraceCapture::port_path(run_base + sites[s], point);
        const std::uint64_t digest = fnv1a(read_file(path));
        EXPECT_EQ(digest, kPcapDigests[s][static_cast<int>(point)])
            << label << ": " << path << " digest 0x" << std::hex << digest;
        std::remove(path.c_str());
      }
    }
  }
}

// config-P4 --install-program / --remove-program change a program table
// the pipeline shard reads on every copy. Installing byte_counter and
// later removing it must give the same archive with and without worker
// threads (the VM syncs the shard before each change), and the archive
// the per-copy-event serial path produced (its digest). The 100 Mbit/s
// bottleneck and the off-period times leave copies in flight at both
// changes, so a change that skipped the sync would count them.
std::vector<std::string> run_program_churn(std::size_t parallel) {
  const std::string program =
      std::string(P4S_EXAMPLES_DIR) + "/programs/byte_counter.mpl.json";
  MonitoringSystemConfig config = four_switch_scenario(parallel);
  config.topology.bottleneck_bps = units::mbps(100);
  MonitoringSystem system(config);
  auto& psconfig = system.psonar().psconfig();
  psconfig.execute("psconfig config-P4 --samples_per_second 2");
  system.start();
  system.add_transfer(0).start_at(seconds(1));
  system.add_transfer(1).start_at(seconds(2));
  const SimTime off_period = units::microseconds(250);
  system.simulation().at(seconds(3) + off_period, [&psconfig, &program]() {
    const auto result =
        psconfig.execute("psconfig config-P4 --install-program " + program);
    EXPECT_TRUE(result.ok) << result.message;
  });
  system.simulation().at(seconds(5) + off_period, [&psconfig]() {
    const auto result =
        psconfig.execute("psconfig config-P4 --remove-program byte_counter");
    EXPECT_TRUE(result.ok) << result.message;
  });
  system.run_until(seconds(7));
  return archived_docs(system);
}

TEST(ParallelFabric, MidRunProgramInstallAndRemoveAreParallelInvariant) {
  constexpr std::uint64_t kArchiveDigest = 0xd711ccb3060354f4ull;
  for (const std::size_t parallel : {1u, 2u}) {
    const std::vector<std::string> docs = run_program_churn(parallel);
    ASSERT_TRUE(std::any_of(docs.begin(), docs.end(),
                            [](const std::string& doc) {
                              return doc.find("\"vm_throughput\"") !=
                                     std::string::npos;
                            }))
        << "the installed program exported nothing";
    const std::uint64_t digest = archive_digest(docs);
    EXPECT_EQ(digest, kArchiveDigest)
        << "parallel=" << parallel << ": archive digest 0x" << std::hex
        << digest;
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

// Zero workers is the serial run: no thread starts, and publishing a
// grant advances the shard on the publishing thread before returning.
TEST(ShardPool, ZeroWorkersAdvanceShardsOnTheCallingThread) {
  sim::ShardPool pool(sim::ShardPool::Config{0, 0});
  CountingShard shards[2];
  for (auto& s : shards) pool.add_shard(s);
  pool.start();
  EXPECT_EQ(pool.worker_count(), 0u);
  pool.publish_grant(0, 100);
  EXPECT_EQ(shards[0].executed_to.load(), 100u);
  EXPECT_EQ(pool.watermark(0), 100u);
  EXPECT_EQ(shards[1].calls, 0u);
  pool.barrier_all(300);
  for (const auto& s : shards) EXPECT_EQ(s.executed_to.load(), 300u);
  pool.barrier(0, 200);  // already past: no call
  EXPECT_EQ(shards[0].calls, 2u);
  EXPECT_EQ(pool.barrier_waits(), 0u);
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
  // The main timeline mirrors four copies per nanosecond with a 1 ns
  // TAP latency; no grant pump fires this early, so the only grants the
  // shard sees are the ones full-inbox pushes publish. Once a copy
  // waiting outside the inbox falls due, the push blocks until the
  // shard has drained up to it: on the worker, or with zero workers on
  // the pushing thread.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    constexpr std::uint32_t kFrames = 3 * 8192 + 5;
    constexpr SimTime kFirstAt = 1000;
    auto at = [](std::uint32_t i) { return kFirstAt + i / 4; };
    sim::Simulation main_sim;
    sim::Simulation pipeline_sim;
    YieldingSink sink(pipeline_sim);
    core::FabricExecutor fabric(main_sim,
                                core::FabricExecutor::Config{workers, 0});
    const std::size_t shard = fabric.add_switch(pipeline_sim, sink);
    fabric.start();

    {
      HangWatchdog watchdog("FabricExecutor push");
      std::uint32_t pushed = 0;
      main_sim.every(kFirstAt - 1, 1, [&]() {
        net::MirrorFrame frame{};
        for (int k = 0; k < 4 && pushed < kFrames; ++k, ++pushed) {
          frame.at = main_sim.now() + 1;
          frame.wire_len = pushed;  // tags the push order
          fabric.boundary(shard).push(frame);
          watchdog.progress(pushed + 1);
        }
        return pushed < kFrames;
      });
      main_sim.run_until(at(kFrames - 1));
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
}

// More copies than the inbox holds are in flight at once (a long TAP
// latency): the ones that do not fit wait outside it, and a driver read
// at main time T still sees exactly the copies due before T — never one
// due at or after T — whoever advances the shard.
TEST(FabricExecutor, SyncAfterAFullInboxSeesOnlyCopiesDueBeforeNow) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    constexpr std::uint32_t kFrames = 3000;
    constexpr SimTime kReadAt = 2500;
    auto at = [](std::uint32_t i) { return SimTime{2000} + i / 2; };
    sim::Simulation main_sim;
    sim::Simulation pipeline_sim;
    YieldingSink sink(pipeline_sim);
    core::FabricExecutor fabric(main_sim,
                                core::FabricExecutor::Config{workers, 0});
    const std::size_t shard = fabric.add_switch(pipeline_sim, sink);
    fabric.start();

    main_sim.run_until(1000);
    net::MirrorFrame frame{};
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      frame.at = at(i);
      frame.wire_len = i;
      fabric.boundary(shard).push(frame);
    }
    EXPECT_GT(fabric.blocked_pushes(), 0u);

    main_sim.run_until(kReadAt);
    fabric.sync(shard);
    ASSERT_EQ(sink.seen.size(), 2 * (kReadAt - at(0)));
    EXPECT_LT(sink.seen.back().second, kReadAt);

    fabric.barrier_all(at(kFrames - 1));
    ASSERT_EQ(sink.seen.size(), kFrames);
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      ASSERT_EQ(sink.seen[i].first, i) << "frame delivered out of order";
      ASSERT_EQ(sink.seen[i].second, at(i)) << "frame " << i;
    }
    fabric.stop();
  }
}

// Nothing can drain an inbox full of copies due in the same nanosecond
// (no grant may cover them while more of that instant wait outside):
// handing them over throws rather than spin forever.
TEST(FabricExecutor, InboxFullOfOneInstantThrowsWhenDue) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{0}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    sim::Simulation main_sim;
    sim::Simulation pipeline_sim;
    YieldingSink sink(pipeline_sim);
    core::FabricExecutor fabric(main_sim,
                                core::FabricExecutor::Config{workers, 0});
    const std::size_t shard = fabric.add_switch(pipeline_sim, sink);
    fabric.start();
    net::MirrorFrame frame{};
    frame.at = 1000;
    for (int i = 0; i < 2048; ++i) fabric.boundary(shard).push(frame);
    EXPECT_THROW(fabric.barrier_all(1000), std::logic_error);
    EXPECT_TRUE(sink.seen.empty());
    fabric.stop();
  }
}

}  // namespace
}  // namespace p4s
