// Golden durability regression (satellite of the durable store):
//
// The fixed-seed Fig. 9-style scenario runs twice — once on the default
// in-memory archiver, once persisting through the durable store. Then the
// store directory is reopened in a *fresh* Store + Archiver (simulating a
// new process) and every index's search() output must be byte-identical
// to the in-memory run: persistence is invisible to consumers.
//
// This leans on util::Json's round-trip guarantee (dump∘parse∘dump is
// stable) — WAL and segments hold dump()ed text, reload parses it back.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "core/monitoring_system.hpp"
#include "psonar/store_backend.hpp"
#include "store/store.hpp"

using namespace p4s;
using units::seconds;

namespace {

namespace fs = std::filesystem;

constexpr const char* kPsconfigCmd =
    "psconfig config-P4 --samples_per_second 2";
constexpr SimTime kHorizon = seconds(9);

core::MonitoringSystemConfig scenario_config() {
  core::MonitoringSystemConfig config;
  config.topology.bottleneck_bps = units::mbps(2);
  config.seed = 1;
  return config;
}

// Both runs advance the clock in identical chunks; the durable run does
// its store maintenance BETWEEN chunks (from outside the event queue).
// Scheduling maintenance as a simulation event would add events the
// memory run doesn't have, shifting same-timestamp tie-breaking and RNG
// draw order — the runs would diverge for reasons unrelated to storage.
void run_scenario(core::MonitoringSystem& system,
                  const std::function<void()>& between_chunks = {}) {
  system.psonar().psconfig().execute(kPsconfigCmd);
  system.start();
  // Explicit ports: the default allocator is a process-global counter,
  // and this test builds two systems in one process.
  const SimTime starts[] = {seconds(1), seconds(2), seconds(5)};
  for (int i = 0; i < 3; ++i) {
    tcp::TcpFlow::Config flow;
    flow.dst_port = static_cast<std::uint16_t>(5201 + i);
    system.add_transfer(i, std::move(flow)).start_at(starts[i]);
  }
  for (std::int64_t s = 3; s <= 9; s += 3) {
    system.run_until(seconds(s));
    if (between_chunks) between_chunks();
  }
}

std::vector<std::string> archive_dump(const ps::Archiver& archiver,
                                      const std::string& index) {
  std::vector<std::string> lines;
  archiver.for_each(index, {}, [&](const util::Json& doc) {
    lines.push_back(doc.dump());
    return true;
  });
  return lines;
}

TEST(StoreGolden, DurableArchiveReloadsByteIdenticalToMemoryRun) {
  const std::string dir = ::testing::TempDir() + "p4s_store_golden";
  fs::remove_all(dir);

  // Run A: the plain in-memory archive.
  core::MonitoringSystem memory_system(scenario_config());
  run_scenario(memory_system);
  const auto& memory_archiver = memory_system.psonar().archiver();
  const auto indices = memory_archiver.indices();
  ASSERT_FALSE(indices.empty()) << "scenario produced no archived reports";
  ASSERT_GT(memory_archiver.total_docs(), 0u);

  // Run B: identical scenario, archiver persisting through the store.
  // Aggressive seal/compact thresholds so the run exercises segments,
  // WAL-tail recovery, AND compaction — not just the memtable.
  {
    auto config = scenario_config();
    config.archive.durable = true;
    config.archive.dir = dir;
    config.archive.store.seal_min_docs = 8;
    config.archive.store.compact_fanin = 3;
    config.archive.maintenance_interval = 0;  // driven between chunks below
    core::MonitoringSystem durable_system(config);
    run_scenario(durable_system,
                 [&] { durable_system.archive_store().maintain(); });
    ASSERT_TRUE(durable_system.durable_archive());
    // Same documents while live (both runs share seed + scenario).
    for (const auto& index : indices) {
      EXPECT_EQ(archive_dump(durable_system.psonar().archiver(), index),
                archive_dump(memory_archiver, index))
          << "live durable archive diverged on index " << index;
    }
    // End of run: make the memtable tail durable, leave a mix of sealed
    // segments behind. (flush() only — seal is already threshold-driven.)
    durable_system.archive_store().flush();
    EXPECT_GT(
        durable_system.archive_store().snapshot().segment_count(indices[0]),
        0u)
        << "thresholds never sealed; the reload would only test the WAL";
  }  // "process exit"

  // Offline check before reopening: the directory must verify clean.
  const auto verify = store::Store::verify(dir);
  ASSERT_TRUE(verify.ok) << (verify.errors.empty() ? "" : verify.errors[0]);
  EXPECT_GT(verify.segments, 0u);

  // Fresh "process": reopen the store, mount it behind a new archiver.
  store::Store reopened(dir, scenario_config().archive.store);
  ps::Archiver restored(std::make_unique<ps::StoreBackend>(reopened));
  ASSERT_EQ(restored.indices(), indices);
  EXPECT_EQ(restored.total_docs(), memory_archiver.total_docs());
  for (const auto& index : indices) {
    const auto expected = archive_dump(memory_archiver, index);
    const auto actual = archive_dump(restored, index);
    ASSERT_EQ(expected.size(), actual.size()) << "index " << index;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(expected[i], actual[i])
          << "index " << index << " doc " << i
          << " diverged after persist/reload";
    }
    EXPECT_EQ(restored.doc_count(index), memory_archiver.doc_count(index));
  }

  // And a dashboard-shaped query (newest 5 in a time window) agrees too.
  ps::Archiver::Query query;
  query.range_field = "ts_ns";
  query.range_min = static_cast<double>(seconds(3));
  query.range_max = static_cast<double>(seconds(8));
  query.limit = 5;
  query.newest_first = true;
  for (const auto& index : indices) {
    const auto expected = memory_archiver.search(index, query);
    const auto actual = restored.search(index, query);
    ASSERT_EQ(expected.size(), actual.size()) << "index " << index;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].dump(), actual[i].dump());
    }
  }
}

}  // namespace
