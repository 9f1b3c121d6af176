// Tests: the concurrent serving path — snapshot isolation under live
// writer churn (the 10k-maintain-cycle stress battery), retired-segment
// GC pinned by snapshots, segments loading once per handle under
// concurrent readers, and dashboard queries through a query-only
// ps::Archiver over the store.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "psonar/archiver.hpp"
#include "psonar/store_backend.hpp"
#include "store/store.hpp"

namespace p4s::store {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "p4s_store_conc_" + name;
  fs::remove_all(dir);
  return dir;
}

util::Json doc_at(std::int64_t ts, std::int64_t value,
                  const std::string& site) {
  util::Json doc = util::Json::object();
  doc["ts_ns"] = ts;
  doc["throughput_bps"] = value;
  doc["switch_id"] = site;
  return doc;
}

// The tentpole stress test: readers pin snapshots and query them while
// the writer appends, seals, and compacts through 10k+ maintenance
// cycles. Each pinned snapshot must stay frozen — same doc count before,
// during, and after its queries — and no segment a snapshot references
// may be deleted underneath it (a deleted file would surface as a
// StoreError when the scan loads it).
TEST(StoreConcurrency, SnapshotsStayFrozenAcross10kMaintainCycles) {
  const std::string dir = fresh_dir("stress");
  StoreConfig config;
  config.wal_batch_docs = 16;
  config.seal_min_docs = 8;
  config.compact_fanin = 3;
  Store store(dir, config);

  constexpr int kCycles = 10'000;
  constexpr int kReaders = 4;
  const char* sites[] = {"s0", "s1", "s2"};

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reader_iterations{0};
  std::mutex failure_mu;
  std::vector<std::string> failures;
  const auto record_failure = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(failure_mu);
    failures.push_back(what);
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(static_cast<unsigned>(1000 + r));
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const Snapshot snap = store.snapshot();
          const std::uint64_t frozen = snap.doc_count("idx");
          const std::uint64_t frozen_segments = snap.segment_count("idx");

          // Full scan: must visit exactly the frozen doc count even as
          // the writer seals/compacts (and GC retires) underneath.
          std::uint64_t visited = 0;
          snap.scan("idx", ScanOptions{}, [&](const util::Json&) {
            ++visited;
            return true;
          });
          if (visited != frozen) {
            record_failure("full scan visited " + std::to_string(visited) +
                           " of " + std::to_string(frozen));
          }

          // Random term query. Raw scans over-approximate by contract
          // (memtable docs and bloom-only segments come through
          // unfiltered; callers re-check) — the pinned-view invariant
          // is that the same scan on the same snapshot is exactly
          // repeatable, writer churn or not.
          const std::string site = sites[rng() % 3];
          ScanOptions term;
          term.term_keys = {term_key("switch_id", util::Json(site))};
          term.newest_first = (rng() % 2) == 0;
          const auto count_matches = [&] {
            std::uint64_t matches = 0;
            snap.scan("idx", term, [&](const util::Json& doc) {
              if (doc.at("switch_id").as_string() == site) ++matches;
              return true;
            });
            return matches;
          };
          const std::uint64_t first_pass = count_matches();
          if (first_pass > frozen) {
            record_failure("term scan matched more docs than the snapshot");
          }
          if (count_matches() != first_pass) {
            record_failure("term scan not repeatable on a pinned snapshot");
          }

          // Random range aggregate on the pinned view is repeatable.
          const double lo = static_cast<double>(rng() % 4096);
          const auto once = snap.aggregate_column("idx", "throughput_bps",
                                                  "ts_ns", lo, lo + 2048);
          const auto twice = snap.aggregate_column("idx", "throughput_bps",
                                                   "ts_ns", lo, lo + 2048);
          if (once.has_value() != twice.has_value() ||
              (once.has_value() && once->count != twice->count)) {
            record_failure("aggregate changed on a pinned snapshot");
          }

          // The view itself must not have drifted.
          if (snap.doc_count("idx") != frozen ||
              snap.segment_count("idx") != frozen_segments) {
            record_failure("snapshot counts drifted");
          }
        } catch (const StoreError& e) {
          record_failure(std::string("reader hit StoreError: ") + e.what());
        }
        reader_iterations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::mt19937 writer_rng(7);
  std::int64_t ts = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    const int burst = 1 + static_cast<int>(writer_rng() % 3);
    for (int i = 0; i < burst; ++i) {
      store.append("idx", doc_at(ts, ts % 977, sites[ts % 3]));
      ++ts;
    }
    store.maintain();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();

  for (const auto& failure : failures) ADD_FAILURE() << failure;
  EXPECT_GT(reader_iterations.load(), 0u);

  const auto stats = store.stats();
  EXPECT_GE(stats.seals, kCycles / 16u);  // the writer really churned
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.segments_retired, 0u);
  // With every reader released, GC owes nothing.
  EXPECT_EQ(stats.gc_pending(), 0u);
  EXPECT_EQ(store.snapshot().doc_count("idx"),
            static_cast<std::uint64_t>(ts));

  store.flush();
  const auto verify = Store::verify(dir);
  EXPECT_TRUE(verify.ok) << (verify.errors.empty() ? "" : verify.errors[0]);
}

// A snapshot taken before a compaction keeps the replaced segment files
// alive (and readable) until it is released; release triggers the
// deferred unlink.
TEST(StoreConcurrency, SnapshotPinsRetiredSegmentsUntilRelease) {
  const std::string dir = fresh_dir("gc_pin");
  StoreConfig config;
  config.seal_min_docs = 4;
  config.compact_fanin = 0;
  Store store(dir, config);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 4; ++i) {
      store.append("idx", doc_at(seg * 10 + i, i, "s0"));
    }
    store.seal("idx");
  }
  ASSERT_EQ(store.snapshot().segment_count("idx"), 3u);
  const auto seg_files = [&] {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir + "/seg")) {
      files.push_back(entry.path().string());
    }
    return files;
  };
  ASSERT_EQ(seg_files().size(), 3u);

  {
    const Snapshot pinned = store.snapshot();
    store.compact("idx");
    EXPECT_EQ(store.snapshot().segment_count("idx"), 1u);
    // Old files are retired but still on disk: the snapshot pins them.
    EXPECT_EQ(store.stats().segments_retired, 3u);
    EXPECT_EQ(store.stats().gc_pending(), 3u);
    EXPECT_EQ(seg_files().size(), 4u);  // 3 retired + 1 merged
    // And still perfectly readable through the pinned view.
    std::uint64_t visited = 0;
    pinned.scan("idx", ScanOptions{}, [&](const util::Json&) {
      ++visited;
      return true;
    });
    EXPECT_EQ(visited, 12u);
    EXPECT_EQ(pinned.segment_count("idx"), 3u);
  }
  // Snapshot released: the deferred unlink ran.
  EXPECT_EQ(store.stats().gc_pending(), 0u);
  EXPECT_EQ(store.stats().segments_gc_deleted, 3u);
  EXPECT_EQ(seg_files().size(), 1u);
  EXPECT_TRUE(Store::verify(dir).ok);
}

// Each segment handle decodes its file on first read and keeps it: the
// first scan of three segments is three misses, a second scan three hits.
// A second Store on the same directory has its own handles and loads the
// segments again.
TEST(StoreConcurrency, SegmentsLoadOncePerHandle) {
  const std::string dir = fresh_dir("load_once");
  StoreConfig config;
  config.seal_min_docs = 4;
  config.compact_fanin = 0;
  Store store(dir, config);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 4; ++i) {
      store.append("idx", doc_at(seg * 10 + i, i, "s0"));
    }
    store.seal("idx");
  }
  const auto scan_all = [](const Store& s) {
    std::uint64_t visited = 0;
    s.snapshot().scan("idx", ScanOptions{}, [&](const util::Json&) {
      ++visited;
      return true;
    });
    return visited;
  };
  ASSERT_EQ(scan_all(store), 12u);
  auto stats = store.stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
  ASSERT_EQ(scan_all(store), 12u);
  stats = store.stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 3u);

  const Store reopened(dir, config, OpenMode::read_only);
  ASSERT_EQ(scan_all(reopened), 12u);
  EXPECT_EQ(reopened.stats().cache_misses, 3u);
  EXPECT_EQ(reopened.stats().cache_hits, 0u);
}

// Readers racing on a cold store decode each segment once: the first
// load of a handle runs under its lock, so concurrent first reads of one
// segment wait for it instead of decoding again.
TEST(StoreConcurrency, ConcurrentColdReadersLoadEachSegmentOnce) {
  const std::string dir = fresh_dir("cold_race");
  StoreConfig config;
  config.seal_min_docs = 4;
  config.compact_fanin = 0;
  constexpr int kSegments = 6;
  {
    Store writer(dir, config);
    for (int seg = 0; seg < kSegments; ++seg) {
      for (int i = 0; i < 4; ++i) {
        writer.append("idx", doc_at(seg * 10 + i, i, "s0"));
      }
      writer.seal("idx");
    }
  }
  const Store store(dir, config, OpenMode::read_only);
  ASSERT_EQ(store.snapshot().segment_count("idx"),
            static_cast<std::uint64_t>(kSegments));

  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::vector<std::uint64_t> visited(kReaders, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const Snapshot snap = store.snapshot();
      ready.fetch_add(1);
      while (ready.load() < kReaders) std::this_thread::yield();
      snap.scan("idx", ScanOptions{}, [&](const util::Json&) {
        ++visited[static_cast<std::size_t>(r)];
        return true;
      });
    });
  }
  for (auto& reader : readers) reader.join();

  for (const std::uint64_t v : visited) EXPECT_EQ(v, 4u * kSegments);
  const auto stats = store.stats();
  EXPECT_EQ(stats.cache_misses, static_cast<std::uint64_t>(kSegments));
  EXPECT_EQ(stats.cache_hits,
            static_cast<std::uint64_t>(kSegments * (kReaders - 1)));
}

TEST(StoreConcurrency, QueryArchiverAnswersTermAggregateAndLatest) {
  const std::string dir = fresh_dir("server");
  StoreConfig config;
  config.seal_min_docs = 8;
  Store store(dir, config);
  for (int i = 0; i < 40; ++i) {
    store.append("tput", doc_at(i, 100 + i, i % 2 == 0 ? "s0" : "s1"));
  }
  store.seal("tput");

  const ps::Archiver server(std::make_unique<ps::StoreBackend>(store));

  // Search with a term.
  ps::ArchiverQuery term;
  term.terms["switch_id"] = util::Json(std::string("s0"));
  EXPECT_EQ(server.search("tput", term).size(), 20u);

  // Aggregate matches the columnar math.
  const auto agg = server.aggregate("tput", "throughput_bps");
  EXPECT_EQ(agg.count, 40u);
  EXPECT_DOUBLE_EQ(agg.min, 100.0);
  EXPECT_DOUBLE_EQ(agg.max, 139.0);

  // Latest value is the newest document's field.
  const auto latest = server.latest_value("tput", "throughput_bps");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->as_int(), 139);
}

// The dashboards' mixed query load (term, range, aggregate, latest)
// through a query-only Archiver while a writer appends, seals and
// compacts.
// Under a single writer snapshots only move forward, so no reader may
// see its term-match count shrink; the store must verify clean after.
TEST(StoreConcurrency, ReadersSeeMonotonicTermCountsUnderWriterChurn) {
  const std::string dir = fresh_dir("serve_churn");
  StoreConfig config;
  config.seal_min_docs = 64;
  config.compact_fanin = 4;
  Store store(dir, config);
  constexpr int kPreload = 1024;
  constexpr int kWrites = 1024;
  constexpr int kReaders = 4;
  constexpr int kMinQueries = 40;
  const char* sites[] = {"s0", "s1", "s2"};
  const auto write = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      store.append("tput", doc_at(i, 100 + i % 977, sites[i % 3]));
      if ((i + 1) % 32 == 0) store.maintain();
    }
  };
  write(0, kPreload);

  const ps::Archiver server(std::make_unique<ps::StoreBackend>(store));
  ps::ArchiverQuery term;
  term.terms["switch_id"] = util::Json(std::string("s0"));
  ps::ArchiverQuery recent;
  recent.range_field = "ts_ns";
  recent.range_min = kPreload * 0.9;
  recent.limit = 64;

  std::atomic<bool> writer_done{false};
  std::atomic<int> shrinks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t last_term_count = 0;
      // Keep querying until the writer is done, so every reader overlaps
      // the churn however the threads are scheduled.
      for (int q = 0; q < kMinQueries || !writer_done.load(); ++q) {
        switch ((q + r) % 4) {
          case 0: {
            const std::size_t count = server.search("tput", term).size();
            if (count < last_term_count) shrinks.fetch_add(1);
            last_term_count = count;
            break;
          }
          case 1:
            (void)server.search("tput", recent);
            break;
          case 2:
            (void)server.aggregate("tput", "throughput_bps");
            break;
          default:
            (void)server.latest_value("tput", "throughput_bps");
            break;
        }
      }
    });
  }
  write(kPreload, kPreload + kWrites);
  writer_done.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(shrinks.load(), 0);
  EXPECT_EQ(server.search("tput", term).size(),
            static_cast<std::size_t>((kPreload + kWrites + 2) / 3));
  EXPECT_GT(store.stats().compactions, 0u);
  store.flush();
  const auto verify = Store::verify(dir);
  EXPECT_TRUE(verify.ok) << (verify.errors.empty() ? "" : verify.errors[0]);
}

TEST(StoreConcurrency, ReadOnlyOpenRejectsWrites) {
  const std::string dir = fresh_dir("read_only");
  {
    Store store(dir);
    store.append("idx", doc_at(1, 1, "s0"));
    store.flush();
  }
  Store reader(dir, {}, OpenMode::read_only);
  EXPECT_EQ(reader.snapshot().doc_count("idx"), 1u);
  EXPECT_THROW(reader.append("idx", doc_at(2, 2, "s0")), StoreError);
  EXPECT_THROW(reader.flush(), StoreError);
  EXPECT_THROW(reader.seal("idx"), StoreError);
  EXPECT_THROW(reader.compact("idx"), StoreError);
  EXPECT_THROW(reader.maintain(), StoreError);
}

}  // namespace
}  // namespace p4s::store
