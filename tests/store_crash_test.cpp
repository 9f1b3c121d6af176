// Crash-injection matrix for the store's multi-file write paths.
//
// The failpoint hook fires at every fsync/rename boundary inside seal,
// tiered compaction, manifest publication, and WAL rotation. At each
// named boundary we photograph the store directory (a recursive copy —
// exactly what a power cut would leave on a journalled filesystem),
// then at the end reopen every photograph and require that (a)
// `Store::verify` passes and (b) no document that had been committed
// when the photograph was taken is missing.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace p4s::store {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "p4s_store_crash_" + name;
  fs::remove_all(dir);
  return dir;
}

util::Json doc_at(std::int64_t ts, std::int64_t value) {
  util::Json doc = util::Json::object();
  doc["ts_ns"] = ts;
  doc["throughput_bps"] = value;
  doc["switch_id"] = (ts % 2 == 0) ? "s0" : "s1";
  return doc;
}

struct CrashImage {
  std::string boundary;
  std::string dir;
  std::uint64_t committed_docs = 0;  // committed when the image was taken
  std::uint64_t appended_docs = 0;   // appended (maybe uncommitted) then
};

// All boundaries the write paths announce. The test asserts every one
// of these actually fired, so a renamed/removed failpoint cannot
// silently shrink the matrix.
const char* const kBoundaries[] = {
    "seal.begin",          "seal.segment_written",
    "seal.manifest_written", "seal.wal_rotated",
    "compact.begin",       "compact.segment_written",
    "compact.manifest_written", "compact.retired",
    "manifest.tmp_written", "wal_rotate.tmp_written",
    "wal_rotate.renamed",
};

TEST(StoreCrash, EveryWriteBoundaryRecoversWithoutLosingCommittedDocs) {
  const std::string live_dir = fresh_dir("live");
  const std::string image_root = fresh_dir("images");
  fs::create_directories(image_root);

  // Every append is committed before append() returns, so the committed
  // count at any boundary is simply the number of completed appends.
  std::uint64_t appended = 0;
  std::uint64_t committed = 0;

  std::vector<CrashImage> images;
  std::map<std::string, int> fired;
  set_store_failpoint_hook([&](std::string_view name) {
    const int shot = fired[std::string(name)]++;
    if (shot >= 2) return;  // two photographs per boundary are plenty
    CrashImage image;
    image.boundary = std::string(name);
    image.dir = image_root + "/" + image.boundary + "." +
                std::to_string(shot);
    image.committed_docs = committed;
    image.appended_docs = appended;
    fs::create_directories(image.dir);
    fs::copy(live_dir, image.dir,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing);
    images.push_back(std::move(image));
  });

  {
    StoreConfig config;
    config.wal_batch_docs = 1;  // every append commits immediately
    config.seal_min_docs = 4;
    config.compact_fanin = 2;
    Store store(live_dir, config);
    for (int i = 0; i < 64; ++i) {
      store.append("tput", doc_at(i, 100 + i));
      ++appended;
      ++committed;
      store.maintain();  // seals every 4 docs, tier-merges pairs
    }
    // One explicit full compaction to drive the compact.* boundaries on
    // a larger merge as well.
    store.compact("tput");
    store.flush();
  }
  set_store_failpoint_hook(nullptr);

  // The whole matrix must have fired; a boundary that never fires means
  // the hook site was dropped and this test is no longer covering it.
  for (const char* boundary : kBoundaries) {
    EXPECT_GE(fired[boundary], 1) << "failpoint never fired: " << boundary;
  }
  ASSERT_FALSE(images.empty());

  for (const auto& image : images) {
    SCOPED_TRACE("crash image at " + image.boundary);

    // A power cut here leaves exactly these files. Offline verify first.
    const auto verify = Store::verify(image.dir);
    EXPECT_TRUE(verify.ok)
        << (verify.errors.empty() ? "no detail" : verify.errors[0]);

    // Then a real recovery: reopen and count.
    Store recovered(image.dir);
    const std::uint64_t docs = recovered.snapshot().doc_count("tput");
    EXPECT_GE(docs, image.committed_docs)
        << "lost committed docs (had " << image.committed_docs << ")";
    EXPECT_LE(docs, image.appended_docs)
        << "resurrected docs that were never appended";

    // Recovered data is coherent: every doc is scannable and carries
    // its fields.
    std::uint64_t visited = 0;
    recovered.snapshot().scan(
        "tput", ScanOptions{}, [&](const util::Json& doc) {
          EXPECT_TRUE(doc.contains("ts_ns"));
          EXPECT_TRUE(doc.contains("throughput_bps"));
          ++visited;
          return true;
        });
    EXPECT_EQ(visited, docs);

    // And the recovered store can keep working: append + seal + verify.
    recovered.append("tput", doc_at(10'000, 1));
    recovered.flush();
    recovered.seal("tput");
    EXPECT_EQ(recovered.snapshot().doc_count("tput"), docs + 1);
  }

  // Each reopened image rewrote its manifest / WAL; re-verify the
  // post-recovery state too (recovery must not corrupt what it healed).
  for (const auto& image : images) {
    SCOPED_TRACE("post-recovery verify at " + image.boundary);
    EXPECT_TRUE(Store::verify(image.dir).ok);
  }
}

// The classic torn-manifest shape deserves its own spelled-out case:
// MANIFEST.tmp fully written, crash before the rename. The orphaned
// .tmp must be ignored on reopen and the previous manifest must win.
TEST(StoreCrash, OrphanManifestTmpIsIgnoredOnReopen) {
  const std::string dir = fresh_dir("tmp_orphan");
  {
    Store store(dir, StoreConfig{});
    store.append("idx", doc_at(1, 10));
    store.flush();
    store.seal("idx");  // manifest generation 1 on disk
  }
  // Fabricate the torn state: a stale .tmp beside the good manifest.
  {
    std::ofstream tmp(dir + "/MANIFEST.tmp");
    tmp << "{\"garbage\": true}";
  }
  Store reopened(dir);
  EXPECT_EQ(reopened.snapshot().doc_count("idx"), 1u);
  EXPECT_EQ(reopened.snapshot().segment_count("idx"), 1u);
  EXPECT_TRUE(Store::verify(dir).ok);
}

}  // namespace
}  // namespace p4s::store
