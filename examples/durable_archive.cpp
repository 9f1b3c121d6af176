// Durable archive walkthrough: run a monitored transfer with the
// archiver persisting through the segmented store (`src/store`), "crash"
// the process by dropping the system, then reopen the store directory in
// a fresh archiver and query yesterday's measurements — the perfSONAR
// workflow where dashboards read archives that outlive the collector.
//
//   ./examples/durable_archive [store-dir]
//
// Inspect the directory afterwards with the operator CLI:
//   ./tools/p4s-store info  <store-dir>
//   ./tools/p4s-store verify <store-dir>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/config_loader.hpp"
#include "core/monitoring_system.hpp"
#include "psonar/store_backend.hpp"
#include "store/store.hpp"
#include "util/units.hpp"

using namespace p4s;
using units::seconds;

int main(int argc, char** argv) {
  const std::string dir =
      argc > 1 ? argv[1]
               : std::filesystem::temp_directory_path().string() +
                     "/p4s_durable_archive";
  std::filesystem::remove_all(dir);  // fresh demo run

  // ---- collection process ---------------------------------------------
  // The "archive" config section selects the store backend; everything
  // else about the system is unchanged (the seam is invisible to
  // consumers). Aggressive seal/compact thresholds so a short demo run
  // still produces sealed segments.
  {
    const std::string config_text = R"({
      "topology": {"bottleneck_mbps": 100},
      "archive": {
        "backend": "store",
        "dir": ")" + dir + R"(",
        "seal_min_docs": 16,
        "compact_fanin": 4,
        "maintenance_interval_s": 0.5
      }
    })";
    core::MonitoringSystem system(
        core::config_from_text(config_text));
    system.psonar().psconfig().execute(
        "psconfig config-P4 --metric throughput --samples_per_second 2");
    system.start();
    system.add_transfer(0).start_at(seconds(1));
    system.add_transfer(1).start_at(seconds(3));
    system.run_until(seconds(12));

    // End of run: push the memtable tail through the WAL and seal it so
    // the whole archive is segment-backed before "process exit".
    auto& store = system.archive_store();
    store.flush();
    store.seal_all();

    std::printf("-- collection run --\n");
    std::printf("archived %llu docs across %zu indices into %s\n",
                static_cast<unsigned long long>(
                    system.psonar().archiver().total_docs()),
                system.psonar().archiver().indices().size(), dir.c_str());
    const auto& stats = store.stats();
    std::printf("store: %llu seals, %llu compactions\n",
                static_cast<unsigned long long>(stats.seals),
                static_cast<unsigned long long>(stats.compactions));
  }  // system destroyed: the collector "process" is gone

  // ---- analysis process -----------------------------------------------
  // A fresh store + archiver over the same directory: recovery replays
  // the manifest and any WAL tail, and the same query API works.
  const auto verify = store::Store::verify(dir);
  std::printf("\n-- reopen --\np4s-store verify: %s (%llu segments, "
              "%llu sealed docs)\n",
              verify.ok ? "OK" : "CORRUPT",
              static_cast<unsigned long long>(verify.segments),
              static_cast<unsigned long long>(verify.sealed_docs));
  if (!verify.ok) return 1;

  store::Store reopened(dir);
  ps::Archiver archiver(std::make_unique<ps::StoreBackend>(reopened));

  std::printf("indices:");
  for (const auto& index : archiver.indices()) {
    std::printf(" %s(%llu)", index.c_str(),
                static_cast<unsigned long long>(archiver.doc_count(index)));
  }
  std::printf("\n");

  // A dashboard-style query: the latest 3 throughput samples. The range
  // filter lets the backend prune segments whose time span is disjoint.
  ps::Archiver::Query query;
  query.range_field = "ts_ns";
  query.range_min = static_cast<double>(seconds(6));
  query.limit = 3;
  query.newest_first = true;
  std::printf("\nnewest throughput samples after t=6s:\n");
  for (const auto& doc : archiver.search("p4sonar-throughput", query)) {
    std::printf("  t=%.1fs  %8.2f Mbps  flow -> %s\n",
                doc.at("ts_ns").as_double() / 1e9,
                doc.at("throughput_bps").as_double() / 1e6,
                doc.at("flow").at("dst_ip").as_string().c_str());
  }

  // Aggregations ride the columnar fast path (per-segment summaries).
  const auto agg = archiver.aggregate("p4sonar-throughput",
                                      "throughput_bps");
  std::printf("\nthroughput over the whole archive: n=%llu "
              "avg=%.2f Mbps max=%.2f Mbps\n",
              static_cast<unsigned long long>(agg.count), agg.avg / 1e6,
              agg.max / 1e6);

  // The long-horizon dashboard series: one ranged aggregation per 1 s
  // bucket. Segments outside a bucket are pruned by their time
  // summaries, the rest fold their columns without parsing a document,
  // and unsealed documents count too.
  const auto span = archiver.aggregate("p4sonar-throughput", "ts_ns");
  if (span.count > 0) {
    std::printf("\n1s throughput series:\n");
    const auto first = static_cast<SimTime>(span.min) / seconds(1);
    const auto last = static_cast<SimTime>(span.max) / seconds(1);
    for (SimTime s = first; s <= last; ++s) {
      ps::Archiver::Query bucket;
      bucket.range_field = "ts_ns";
      bucket.range_min = static_cast<double>(seconds(s));
      bucket.range_max = static_cast<double>(seconds(s + 1) - 1);
      const auto agg =
          archiver.aggregate("p4sonar-throughput", "throughput_bps", bucket);
      if (agg.count == 0) continue;
      std::printf("  [%2llus] n=%-3llu mean=%8.2f Mbps\n",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(agg.count), agg.avg / 1e6);
    }
  }
  return 0;
}
