// Tests: the durable time-series store (src/store) — WAL framing and the
// crash-recovery invariant (every-byte truncation matrix), sealed-segment
// round-trips, range/term segment pruning, compaction, the columnar
// aggregation fast path, offline verification (manifest cases
// and a seeded manifest mutation battery, P4S_SEED), and the p4s-store
// CLI.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "mutate.hpp"
#include "store/codec.hpp"
#include "store/segment.hpp"
#include "store/store.hpp"
#include "store/store_cli.hpp"
#include "store/wal.hpp"

namespace p4s::store {
namespace {

namespace fs = std::filesystem;
using test::read_file;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "p4s_store_" + name;
  fs::remove_all(dir);
  return dir;
}

util::Json doc_at(std::int64_t ts, std::int64_t value,
                  const std::string& site = "lbl") {
  util::Json doc = util::Json::object();
  doc["ts_ns"] = ts;
  doc["throughput_bps"] = value;
  doc["switch_id"] = site;
  util::Json flow = util::Json::object();
  flow["dst_ip"] = "10.1.0.10";
  doc["flow"] = std::move(flow);
  return doc;
}

// ---------- codec ----------

TEST(Codec, VarintAndZigzagRoundTrip) {
  std::string buf;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 32,
                                  ~0ULL};
  for (auto v : values) put_varint(buf, v);
  const std::int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN,
                                        INT64_MAX};
  for (auto v : signed_values) put_svarint(buf, v);
  ByteReader r(buf);
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  for (auto v : signed_values) EXPECT_EQ(r.svarint(), v);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Codec, TruncatedVarintIsNullopt) {
  std::string buf;
  put_varint(buf, 1ULL << 40);
  const std::string cut = buf.substr(0, 2);
  ByteReader r(cut);
  EXPECT_FALSE(r.varint().has_value());
}

// ---------- WAL ----------

TEST(Wal, CommittedBatchesReplayUncommittedDoNot) {
  const std::string dir = fresh_dir("wal_basic");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  {
    WalWriter writer(path);
    writer.append({"idx", 0, "{\"a\":1}"});
    writer.append({"idx", 1, "{\"a\":2}"});
    writer.commit();
    writer.append({"other", 0, "{\"b\":1}"});
    // no commit: this record must not survive
  }
  const auto replay = replay_wal(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.batches, 1u);
  EXPECT_EQ(replay.tail_bytes_dropped, 0u);
  EXPECT_EQ(replay.records[0].index, "idx");
  EXPECT_EQ(replay.records[1].seq, 1u);
  EXPECT_EQ(replay.records[1].doc, "{\"a\":2}");
}

TEST(Wal, MissingFileReplaysEmpty) {
  const auto replay = replay_wal(fresh_dir("wal_missing") + "/nope.log");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.tail_bytes_dropped, 0u);
}

TEST(Wal, CorruptPayloadByteDropsTheTail) {
  const std::string dir = fresh_dir("wal_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  {
    WalWriter writer(path);
    writer.append({"idx", 0, "{\"a\":1}"});
    writer.commit();
    writer.append({"idx", 1, "{\"a\":2}"});
    writer.commit();
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] ^= 0x40;  // flip a bit inside the last payload
  const auto replay = replay_wal_bytes(bytes);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].doc, "{\"a\":1}");
  EXPECT_GT(replay.tail_bytes_dropped, 0u);
}

// The crash-recovery matrix (the subsystem's core invariant): truncating
// the WAL at EVERY byte offset recovers exactly the longest
// committed-batch prefix — never a partial batch, never a partial
// document, never an exception.
TEST(Wal, TruncationAtEveryByteRecoversLongestCommittedPrefix) {
  const std::string dir = fresh_dir("wal_matrix");
  fs::create_directories(dir);
  const std::string path = dir + "/wal.log";
  // 5 batches of varying size; remember the file size and cumulative doc
  // count after each commit.
  std::vector<std::size_t> batch_end_offset;
  std::vector<std::size_t> docs_at_batch;
  std::vector<WalRecord> all;
  {
    WalWriter writer(path);
    std::uint64_t seq = 0;
    for (int b = 0; b < 5; ++b) {
      for (int d = 0; d <= b; ++d) {
        WalRecord record{"idx" + std::to_string(b % 2), seq++,
                         doc_at(1000 * seq, seq).dump()};
        writer.append(record);
        all.push_back(record);
      }
      writer.commit();
      batch_end_offset.push_back(
          static_cast<std::size_t>(fs::file_size(path)));
      docs_at_batch.push_back(all.size());
    }
  }
  const std::string bytes = read_file(path);
  ASSERT_EQ(bytes.size(), batch_end_offset.back());

  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    // Longest committed prefix that fits in `cut` bytes.
    std::size_t expect_docs = 0;
    std::uint64_t expect_batches = 0;
    for (std::size_t b = 0; b < batch_end_offset.size(); ++b) {
      if (batch_end_offset[b] <= cut) {
        expect_docs = docs_at_batch[b];
        expect_batches = b + 1;
      }
    }
    const auto replay = replay_wal_bytes(
        std::string_view(bytes).substr(0, cut));
    ASSERT_EQ(replay.records.size(), expect_docs) << "cut at " << cut;
    ASSERT_EQ(replay.batches, expect_batches) << "cut at " << cut;
    for (std::size_t i = 0; i < expect_docs; ++i) {
      ASSERT_EQ(replay.records[i].index, all[i].index);
      ASSERT_EQ(replay.records[i].seq, all[i].seq);
      ASSERT_EQ(replay.records[i].doc, all[i].doc);
    }
    const bool clean_boundary =
        cut == 0 || (expect_batches > 0 &&
                     batch_end_offset[expect_batches - 1] == cut);
    EXPECT_EQ(replay.tail_bytes_dropped == 0, clean_boundary)
        << "cut at " << cut;
  }
}

// ---------- segments ----------

TEST(Segments, RoundTripPreservesDocsOrderAndStats) {
  const std::string dir = fresh_dir("seg_roundtrip");
  fs::create_directories(dir);
  std::vector<util::Json> docs = {doc_at(100, 7), doc_at(300, 9, "anl"),
                                  doc_at(200, 5)};
  const std::string path = dir + "/a.seg";
  const auto built = write_segment(path, "idx", 40, docs);
  EXPECT_EQ(built.info.docs, 3u);
  EXPECT_EQ(built.info.base_seq, 40u);
  const auto& tput = built.summaries.at("throughput_bps");
  EXPECT_EQ(tput.count, 3u);
  EXPECT_EQ(tput.min, 5.0);
  EXPECT_EQ(tput.max, 9.0);
  EXPECT_EQ(tput.sum, 21.0);

  const Segment seg = Segment::load(path);
  EXPECT_EQ(seg.info().index, "idx");
  std::vector<std::string> texts;
  std::vector<std::uint64_t> seqs;
  seg.for_each_doc(false, [&](std::uint64_t seq, std::string_view text) {
    seqs.push_back(seq);
    texts.emplace_back(text);
    return true;
  });
  ASSERT_EQ(texts.size(), 3u);
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{40, 41, 42}));
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(texts[i], docs[i].dump());
  }
  // Columns decode back to the raw values (time column delta-encoded).
  const auto ts = seg.decode_column("ts_ns");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], 100.0);
  EXPECT_EQ(ts[1], 300.0);
  EXPECT_EQ(ts[2], 200.0);
  // Bloom: present terms may match, absent terms must not.
  EXPECT_TRUE(seg.maybe_contains_term(term_key("switch_id", "anl")));
  EXPECT_TRUE(
      seg.maybe_contains_term(term_key("flow.dst_ip", "10.1.0.10")));
  EXPECT_FALSE(
      seg.maybe_contains_term(term_key("switch_id", "definitely-not")));
}

TEST(Segments, MissingAndDoubleColumnValues) {
  const std::string dir = fresh_dir("seg_missing");
  fs::create_directories(dir);
  util::Json plain = util::Json::object();
  plain["ts_ns"] = 5;
  std::vector<util::Json> docs = {doc_at(1, 2), plain};
  docs[0]["bytes"] = 2.5;
  const std::string path = dir + "/a.seg";
  write_segment(path, "idx", 0, docs);
  const Segment seg = Segment::load(path);
  const auto tput = seg.decode_column("throughput_bps");
  ASSERT_EQ(tput.size(), 2u);
  EXPECT_EQ(tput[0], 2.0);
  EXPECT_FALSE(tput[1].has_value());
  const auto bytes = seg.decode_column("bytes");
  EXPECT_EQ(bytes[0], 2.5);
  EXPECT_FALSE(bytes[1].has_value());
  EXPECT_TRUE(seg.decode_column("not_a_column").empty());
}

// Timestamps more than INT64_MAX apart: the time column's delta wraps
// instead of overflowing (a signed overflow UBSan reported on seal).
TEST(Segments, TimeColumnDeltasWrapWithoutSignedOverflow) {
  const std::string dir = fresh_dir("seg_wide_time");
  fs::create_directories(dir);
  const std::int64_t far = std::int64_t{3} << 61;  // exact as a double
  std::vector<util::Json> docs = {doc_at(-far, 1), doc_at(far, 2),
                                  doc_at(-far, 3)};
  const std::string path = dir + "/a.seg";
  write_segment(path, "idx", 0, docs);
  const auto ts = Segment::load(path).decode_column("ts_ns");
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_EQ(ts[0], static_cast<double>(-far));
  EXPECT_EQ(ts[1], static_cast<double>(far));
  EXPECT_EQ(ts[2], static_cast<double>(-far));
}

// Time values at the edge of and past the int64 range seal, scan and
// prune: the seal reads the time column only into its double summary and
// never casts the summary back to an integer (one such cast overflowed
// on INT64_MAX under -fsanitize=float-cast-overflow).
TEST(Segments, TimeValuesAtAndPastInt64RangeSealAndScan) {
  const std::vector<util::Json> times = {
      util::Json(std::numeric_limits<std::int64_t>::max()), util::Json(1e30)};
  for (const util::Json& ts : times) {
    SCOPED_TRACE(ts.dump());
    const std::string dir = fresh_dir("seg_edge_time");
    Store store(dir);
    util::Json doc = doc_at(0, 7);
    doc["ts_ns"] = ts;
    store.append("idx", doc);
    store.seal("idx");
    ASSERT_EQ(store.snapshot().segment_count("idx"), 1u);
    std::vector<util::Json> seen;
    store.snapshot().scan("idx", {}, [&](const util::Json& d) {
      seen.push_back(d);
      return true;
    });
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], doc);
    // A time range that ends before the document prunes its segment.
    ScanOptions before;
    before.range_field = "ts_ns";
    before.range_max = 1e18;
    std::size_t visited = 0;
    store.snapshot().scan("idx", before, [&](const util::Json&) {
      ++visited;
      return true;
    });
    EXPECT_EQ(visited, 0u);
    EXPECT_EQ(store.stats().segments_pruned_range, 1u);
    store.flush();
    EXPECT_TRUE(Store::verify(dir).ok);
  }
}

TEST(Segments, CorruptionRaisesStoreError) {
  const std::string dir = fresh_dir("seg_corrupt");
  fs::create_directories(dir);
  const std::string path = dir + "/a.seg";
  write_segment(path, "idx", 0, {doc_at(1, 2)});
  std::string bytes = read_file(path);
  {
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x01;
    std::ofstream(path, std::ios::binary | std::ios::trunc) << flipped;
    EXPECT_THROW(Segment::load(path), StoreError);
  }
  {
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);
    EXPECT_THROW(Segment::load(path), StoreError);
  }
  {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << "junk";
    EXPECT_THROW(Segment::load(path), StoreError);
  }
  {  // version 1: the CRC skips magic and version, so only the version
     // check can refuse it
    std::string v1 = bytes;
    v1.replace(4, 4, std::string("\x01\0\0\0", 4));
    std::ofstream(path, std::ios::binary | std::ios::trunc) << v1;
    try {
      (void)Segment::load(path);
      ADD_FAILURE() << "a version-1 segment loaded";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported version"),
                std::string::npos)
          << e.what();
    }
  }
}

// ---------- the store ----------

TEST(StoreLifecycle, AppendSealReopenPreservesEverything) {
  const std::string dir = fresh_dir("lifecycle");
  std::vector<std::string> dumps;
  {
    Store store(dir);
    for (int i = 0; i < 10; ++i) {
      const auto seq = store.append("idx", doc_at(100 * i, i));
      EXPECT_EQ(seq, static_cast<std::uint64_t>(i));
      dumps.push_back(doc_at(100 * i, i).dump());
    }
    store.seal("idx");                      // first 10 sealed
    store.append("idx", doc_at(5000, 99));  // unsealed tail, via WAL
    dumps.push_back(doc_at(5000, 99).dump());
    store.flush();
    EXPECT_EQ(store.snapshot().doc_count("idx"), 11u);
    EXPECT_EQ(store.snapshot().segment_count("idx"), 1u);
    EXPECT_EQ(store.snapshot().memtable_docs("idx"), 1u);
  }
  // Fresh instance: manifest + segment + WAL tail reconstruct the store.
  Store store(dir);
  EXPECT_EQ(store.snapshot().doc_count("idx"), 11u);
  EXPECT_EQ(store.snapshot().total_docs(), 11u);
  EXPECT_EQ(store.snapshot().memtable_docs("idx"), 1u);
  EXPECT_EQ(store.snapshot().indices(), std::vector<std::string>{"idx"});
  std::vector<std::string> scanned;
  store.snapshot().scan("idx", {}, [&](const util::Json& doc) {
    scanned.push_back(doc.dump());
    return true;
  });
  EXPECT_EQ(scanned, dumps);
}

TEST(StoreLifecycle, NewestFirstScanReversesSegmentsAndMemtable) {
  const std::string dir = fresh_dir("newest");
  Store store(dir);
  for (int i = 0; i < 4; ++i) store.append("idx", doc_at(i, i));
  store.seal("idx");
  for (int i = 4; i < 6; ++i) store.append("idx", doc_at(i, i));
  std::vector<std::int64_t> order;
  ScanOptions newest;
  newest.newest_first = true;
  store.snapshot().scan("idx", newest, [&](const util::Json& doc) {
    order.push_back(doc.at("ts_ns").as_int());
    return true;
  });
  EXPECT_EQ(order, (std::vector<std::int64_t>{5, 4, 3, 2, 1, 0}));
}

TEST(StorePruning, TimeRangePrunesDisjointSegments) {
  const std::string dir = fresh_dir("prune_time");
  Store store(dir);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 5; ++i) {
      store.append("idx", doc_at(seg * 1000 + i, i));
    }
    store.seal("idx");
  }
  ASSERT_EQ(store.snapshot().segment_count("idx"), 3u);
  ScanOptions options;
  options.range_field = "ts_ns";
  options.range_min = 1000;
  options.range_max = 1004;
  std::size_t visited = 0;
  store.snapshot().scan("idx", options, [&](const util::Json&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 5u);  // only the middle segment's docs get parsed
  EXPECT_EQ(store.stats().segments_pruned_range, 2u);
  EXPECT_EQ(store.stats().segments_scanned, 1u);
}

TEST(StorePruning, TermBloomPrunesForeignSites) {
  const std::string dir = fresh_dir("prune_term");
  Store store(dir);
  const char* sites[] = {"lbl", "anl", "cern"};
  for (const char* site : sites) {
    for (int i = 0; i < 5; ++i) store.append("idx", doc_at(i, i, site));
    store.seal("idx");
  }
  // switch_id is low-cardinality (one distinct value over five docs), so
  // v2 segments posting-index it: the foreign segments prune via exact
  // empty posting lists and the matching one seeks straight to its rows.
  ScanOptions options;
  options.term_keys = {term_key("switch_id", "cern")};
  std::size_t visited = 0;
  store.snapshot().scan("idx", options, [&](const util::Json&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 5u);
  EXPECT_EQ(store.stats().segments_pruned_postings, 2u);
  EXPECT_EQ(store.stats().segments_pruned_terms, 0u);
  EXPECT_EQ(store.stats().postings_rows_seeked, 5u);

  // throughput_bps is distinct per doc — never posting-indexed — so a
  // term on an absent value still prunes through the bloom filter.
  ScanOptions bloom;
  bloom.term_keys = {term_key("throughput_bps", util::Json(999))};
  std::size_t bloom_visited = 0;
  store.snapshot().scan("idx", bloom, [&](const util::Json&) {
    ++bloom_visited;
    return true;
  });
  EXPECT_EQ(bloom_visited, 0u);
  EXPECT_EQ(store.stats().segments_pruned_terms, 3u);
}

TEST(StorePruning, RangeOnFieldNoDocumentCarriesPrunesEverySegment) {
  const std::string dir = fresh_dir("prune_absent");
  Store store(dir);
  for (int i = 0; i < 5; ++i) {
    util::Json doc = util::Json::object();
    doc["ts_ns"] = i;  // no throughput_bps at all
    store.append("idx", doc);
  }
  store.seal("idx");
  ScanOptions options;
  options.range_field = "throughput_bps";
  options.range_min = 0;
  std::size_t visited = 0;
  store.snapshot().scan("idx", options, [&](const util::Json&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(store.stats().segments_pruned_range, 1u);
}

TEST(StoreCompaction, MergePreservesOrderAndContent) {
  const std::string dir = fresh_dir("compact");
  Store store(dir);
  std::vector<std::string> expected;
  for (int seg = 0; seg < 4; ++seg) {
    for (int i = 0; i < 3; ++i) {
      const auto doc = doc_at(seg * 10 + i, i);
      store.append("idx", doc);
      expected.push_back(doc.dump());
    }
    store.seal("idx");
  }
  ASSERT_EQ(store.snapshot().segment_count("idx"), 4u);
  store.compact("idx");
  EXPECT_EQ(store.snapshot().segment_count("idx"), 1u);
  EXPECT_EQ(store.snapshot().doc_count("idx"), 12u);
  std::vector<std::string> scanned;
  store.snapshot().scan("idx", {}, [&](const util::Json& doc) {
    scanned.push_back(doc.dump());
    return true;
  });
  EXPECT_EQ(scanned, expected);
  // Old segment files are gone; the directory verifies clean.
  const auto verify = Store::verify(dir);
  EXPECT_TRUE(verify.ok) << (verify.errors.empty() ? "" : verify.errors[0]);
  // Reopen still sees everything.
  Store reopened(dir);
  EXPECT_EQ(reopened.snapshot().doc_count("idx"), 12u);
  EXPECT_EQ(reopened.snapshot().segment_count("idx"), 1u);
}

TEST(StoreMaintenance, SealsAndCompactsOnThresholds) {
  const std::string dir = fresh_dir("maintain");
  StoreConfig config;
  config.seal_min_docs = 4;
  config.compact_fanin = 3;
  Store store(dir, config);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      store.append("idx", doc_at(round * 10 + i, i));
    }
    store.maintain();
  }
  // Three seals happened; the third maintain() then compacted 3 -> 1.
  EXPECT_EQ(store.stats().seals, 3u);
  EXPECT_EQ(store.stats().compactions, 1u);
  EXPECT_EQ(store.snapshot().segment_count("idx"), 1u);
  EXPECT_EQ(store.snapshot().doc_count("idx"), 12u);
  // Small memtables are left alone.
  store.append("idx", doc_at(999, 1));
  store.maintain();
  EXPECT_EQ(store.snapshot().memtable_docs("idx"), 1u);
}

TEST(StoreAggregate, ColumnFastPathMatchesGenericScan) {
  const std::string dir = fresh_dir("aggregate");
  Store store(dir);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 8; ++i) {
      store.append("idx", doc_at(seg * 100 + i, seg * 8 + i));
    }
    store.seal("idx");
  }
  for (int i = 0; i < 4; ++i) {
    store.append("idx", doc_at(300 + i, 24 + i));  // memtable tail
  }
  const auto check = [&](std::optional<double> lo,
                         std::optional<double> hi) {
    const auto fast = store.snapshot().aggregate_column(
        "idx", "throughput_bps", "ts_ns", lo, hi);
    ASSERT_TRUE(fast.has_value());
    // Generic reference: scan everything, filter by range.
    std::uint64_t count = 0;
    double min = 0, max = 0, sum = 0;
    store.snapshot().scan("idx", {}, [&](const util::Json& doc) {
      const double t = doc.at("ts_ns").as_double();
      if (lo.has_value() && t < *lo) return true;
      if (hi.has_value() && t > *hi) return true;
      const double v = doc.at("throughput_bps").as_double();
      if (count == 0) {
        min = max = v;
      } else {
        min = std::min(min, v);
        max = std::max(max, v);
      }
      sum += v;
      ++count;
      return true;
    });
    EXPECT_EQ(fast->count, count);
    EXPECT_EQ(fast->min, min);
    EXPECT_EQ(fast->max, max);
    EXPECT_EQ(fast->sum, sum);
  };
  check(std::nullopt, std::nullopt);  // summaries only
  check(50.0, 250.0);                 // partial overlap: decode columns
  check(0.0, 7.0);                    // single segment
  check(1000.0, 2000.0);              // nothing
  // Non-columnar fields refuse the fast path.
  EXPECT_FALSE(store.snapshot()
                   .aggregate_column("idx", "switch_id", "", std::nullopt,
                                     std::nullopt)
                   .has_value());
}

TEST(StoreVerify, DetectsSegmentCorruption) {
  const std::string dir = fresh_dir("verify");
  {
    Store store(dir);
    for (int i = 0; i < 5; ++i) store.append("idx", doc_at(i, i));
    store.seal("idx");
    store.append("idx", doc_at(99, 99));
    store.flush();
  }
  ASSERT_TRUE(Store::verify(dir).ok);
  // Flip one byte inside the segment file.
  std::string seg_file;
  for (const auto& entry : fs::directory_iterator(dir + "/seg")) {
    seg_file = entry.path().string();
  }
  ASSERT_FALSE(seg_file.empty());
  std::string bytes = read_file(seg_file);
  bytes[bytes.size() / 2] ^= 0x10;
  std::ofstream(seg_file, std::ios::binary | std::ios::trunc) << bytes;
  const auto result = Store::verify(dir);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  // WAL truncation, by contrast, is tolerated (crash tail).
  EXPECT_EQ(result.wal_docs, 1u);
}

// A store with two indices and several segments each, fully sealed (its
// WAL holds nothing), for the manifest tests below.
void build_manifest_test_store(const std::string& dir) {
  Store store(dir);
  for (int seg = 0; seg < 3; ++seg) {
    for (int i = 0; i < 4; ++i) {
      const int n = seg * 4 + i;
      store.append("idx", doc_at(50 * n, n));
      if (i % 2 == 0) store.append("other", doc_at(50 * n, 2 * n, "ornl"));
    }
    store.seal_all();
  }
}

/// Docs per index as a read-only open counts them; indices with none are
/// left out, as they are from VerifyResult::index_docs.
std::map<std::string, std::uint64_t> open_counts(const std::string& dir) {
  const Store store(dir, {}, OpenMode::read_only);
  std::map<std::string, std::uint64_t> counts;
  const Snapshot snapshot = store.snapshot();
  for (const auto& index : snapshot.indices()) {
    const std::uint64_t docs = snapshot.doc_count(index);
    if (docs != 0) counts[index] = docs;
  }
  return counts;
}

void write_manifest_text(const std::string& dir, const std::string& text) {
  std::ofstream(dir + "/MANIFEST.json", std::ios::binary | std::ios::trunc)
      << text;
}

// Hand-written bad manifests, each of which the store once opened: both
// open and verify refuse them, and open's error names the offending key.
// (With next_segment_id at or below a listed segment's id, the next seal
// or compaction writes over that segment's file.)
TEST(StoreVerify, OpenAndVerifyRefuseTheSameBadManifests) {
  const std::string dir = fresh_dir("manifest_cases");
  build_manifest_test_store(dir);
  const util::Json good = util::Json::parse(read_file(dir + "/MANIFEST.json"));
  ASSERT_TRUE(Store::verify(dir).ok);
  ASSERT_EQ(open_counts(dir), (std::map<std::string, std::uint64_t>{
                                  {"idx", 12}, {"other", 6}}));

  struct Case {
    const char* name;
    const char* key;  // open's error names it
    std::function<void(util::Json&)> edit;
  };
  const auto idx = [](util::Json& m) -> util::Json& {
    return m["indices"]["idx"];
  };
  const auto first_segment = [&](util::Json& m) -> util::Json& {
    return idx(m)["segments"].as_array()[0];
  };
  const std::vector<Case> cases = {
      {"phantom sealed_docs", "indices.ghost.sealed_docs",
       [](util::Json& m) {
         m["indices"]["ghost"] =
             util::Json::parse(R"({"sealed_docs": 5, "segments": []})");
       }},
      {"negative sealed_docs", "indices.ghost.sealed_docs",
       [](util::Json& m) {
         m["indices"]["ghost"] =
             util::Json::parse(R"({"sealed_docs": -3, "segments": []})");
       }},
      {"version 2", "version", [](util::Json& m) { m["version"] = 2; }},
      {"file outside seg/", "indices.idx.segments[0].file",
       [&](util::Json& m) { first_segment(m)["file"] = "../x.seg"; }},
      {"segment id not below next_segment_id", "indices.idx.segments[1].file",
       [](util::Json& m) { m["next_segment_id"] = 1; }},
      {"base_seq gap", "indices.idx.segments[1].base_seq",
       [&](util::Json& m) {
         auto& second = idx(m)["segments"].as_array()[1];
         second["base_seq"] = second.at("base_seq").as_int() + 1;
       }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    util::Json manifest = good;
    c.edit(manifest);
    write_manifest_text(dir, manifest.dump(2));
    try {
      (void)open_counts(dir);
      ADD_FAILURE() << "open accepted the manifest";
    } catch (const StoreError& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
    EXPECT_FALSE(Store::verify(dir).ok);
  }
  // An empty file is not a fresh store: a read-write open would sweep
  // every segment as an orphan.
  write_manifest_text(dir, "");
  EXPECT_THROW(open_counts(dir), StoreError);
  EXPECT_FALSE(Store::verify(dir).ok);
  write_manifest_text(dir, good.dump(2));
  EXPECT_TRUE(Store::verify(dir).ok);
}

// Manifests written before segments stopped recording their time span
// list has_time/min_ts/max_ts per segment, and those written before the
// store stopped folding seal-time rollups carry a `rollups` section (whose
// rows the decoder once checked, refusing a short one). Rewrite the test
// store's manifest in that old shape.
void write_retired_keys_manifest(const std::string& dir) {
  util::Json manifest = util::Json::parse(read_file(dir + "/MANIFEST.json"));
  for (auto& [name, entry] : manifest["indices"].as_object()) {
    for (auto& seg : entry["segments"].as_array()) {
      seg["has_time"] = true;
      seg["min_ts"] = 0;
      seg["max_ts"] = 550;
    }
  }
  manifest["rollups"] = util::Json::parse(
      R"({"idx": {"throughput_bps": [[0, 2, 0, 1, 1], [1]]}})");
  write_manifest_text(dir, manifest.dump(2));
}

// The decoder ignores keys it does not read, so such stores still open
// and verify clean.
TEST(StoreVerify, ManifestWithRetiredTimeKeysOpensAndVerifies) {
  const std::string dir = fresh_dir("manifest_retired_keys");
  build_manifest_test_store(dir);
  write_retired_keys_manifest(dir);
  EXPECT_EQ(open_counts(dir), (std::map<std::string, std::uint64_t>{
                                  {"idx", 12}, {"other", 6}}));
  const auto result = Store::verify(dir);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
}

// A read-write open of such a store keeps its documents, and its next seal
// writes a manifest without the retired section.
TEST(StoreVerify, SealAfterRetiredRollupsWritesManifestWithoutThem) {
  const std::string dir = fresh_dir("manifest_retired_rewrite");
  build_manifest_test_store(dir);
  write_retired_keys_manifest(dir);
  {
    Store store(dir);
    EXPECT_EQ(store.snapshot().doc_count("idx"), 12u);
    store.append("idx", doc_at(600, 12));
    store.seal("idx");
  }
  const util::Json manifest =
      util::Json::parse(read_file(dir + "/MANIFEST.json"));
  EXPECT_FALSE(manifest.contains("rollups"));
  const std::map<std::string, std::uint64_t> counts = {{"idx", 13},
                                                       {"other", 6}};
  EXPECT_EQ(open_counts(dir), counts);
  const auto result = Store::verify(dir);
  EXPECT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.index_docs, counts);
}

// Seeded bit flips, truncations and splices of a real manifest (run
// under ASan/UBSan with several P4S_SEED values). Open and verify read
// the manifest through one decoder, so they must agree: whatever open
// refuses, verify calls corrupt, and whatever verify passes opens with
// the doc counts verify found in the segment files.
TEST(StoreVerify, ManifestMutationsOpenAndVerifyAgree) {
  const std::string dir = fresh_dir("manifest_battery");
  build_manifest_test_store(dir);
  const std::string good = read_file(dir + "/MANIFEST.json");
  test::Mutator m;
  // Half the flips land on a digit and keep it one ('0'-'7' stay digits
  // under their low three bits), so the counts, sequence numbers and ids
  // change while the JSON still parses.
  std::vector<std::size_t> digits;
  for (std::size_t i = 0; i < good.size(); ++i) {
    if (good[i] >= '0' && good[i] <= '7') digits.push_back(i);
  }
  int refused = 0;
  int verified = 0;
  for (int round = 0; round < 600; ++round) {
    std::string text = good;
    switch (round % 3) {
      case 0:  // flip one to three bits
        for (std::size_t n = 1 + m.below(3); n > 0; --n) {
          if (m.below(2) == 0) {
            m.flip_bit(text, digits[m.below(digits.size())], 3);
          } else {
            m.flip_bit(text);
          }
        }
        break;
      case 1:
        m.truncate(text);
        break;
      default:
        m.move_span(text, 64);
    }
    write_manifest_text(dir, text);
    SCOPED_TRACE("round " + std::to_string(round) + ": " + text);
    std::optional<std::map<std::string, std::uint64_t>> counts;
    try {
      counts = open_counts(dir);
    } catch (const StoreError&) {
      ++refused;
    }
    const auto result = Store::verify(dir);
    if (!counts.has_value()) {
      EXPECT_FALSE(result.ok);
    }
    if (result.ok) {
      ++verified;
      ASSERT_TRUE(counts.has_value());
      EXPECT_EQ(*counts, result.index_docs);
    }
  }
  // The battery reaches both outcomes.
  EXPECT_GT(refused, 0);
  EXPECT_GT(verified, 0);
}

TEST(StoreRecovery, ReopenAfterWalTailTruncationKeepsCommittedPrefix) {
  const std::string dir = fresh_dir("reopen_truncated");
  {
    Store store(dir);
    for (int i = 0; i < 3; ++i) store.append("idx", doc_at(i, i));
    store.flush();
    store.append("idx", doc_at(3, 3));
    store.flush();
  }
  // Cut into the last committed batch: only the first batch survives.
  const std::string wal = dir + "/wal.log";
  const std::string bytes = read_file(wal);
  std::ofstream(wal, std::ios::binary | std::ios::trunc)
      << bytes.substr(0, bytes.size() - 2);
  Store store(dir);
  EXPECT_EQ(store.snapshot().doc_count("idx"), 3u);
  EXPECT_GT(store.stats().wal_tail_bytes_dropped, 0u);
  // The store stays fully usable: append/seal/verify after recovery.
  store.append("idx", doc_at(3, 3));
  store.seal("idx");
  EXPECT_EQ(store.snapshot().doc_count("idx"), 4u);
  EXPECT_TRUE(Store::verify(dir).ok);
}

// ---------- CLI ----------

TEST(StoreCli, InfoVerifyCompactDump) {
  const std::string dir = fresh_dir("cli");
  {
    Store store(dir);
    for (int seg = 0; seg < 2; ++seg) {
      for (int i = 0; i < 3; ++i) {
        store.append("p4sonar-throughput", doc_at(seg * 10 + i, i));
      }
      store.seal("p4sonar-throughput");
    }
  }
  const auto run = [&](std::vector<const char*> args, std::string* text) {
    args.insert(args.begin(), "p4s-store");
    std::ostringstream out;
    std::ostringstream err;
    const int code = store_cli(static_cast<int>(args.size()), args.data(),
                               out, err);
    if (text != nullptr) *text = out.str() + err.str();
    return code;
  };
  std::string text;
  EXPECT_EQ(run({"info", dir.c_str()}, &text), 0);
  EXPECT_NE(text.find("p4sonar-throughput: 6 docs"), std::string::npos);
  EXPECT_EQ(run({"verify", dir.c_str()}, &text), 0);
  EXPECT_NE(text.find("result:       OK"), std::string::npos);
  EXPECT_EQ(run({"compact", dir.c_str()}, &text), 0);
  EXPECT_NE(text.find("2 -> 1 segment(s)"), std::string::npos);
  EXPECT_EQ(run({"dump", dir.c_str(), "p4sonar-throughput", "--limit", "2",
                 "--newest"},
                &text),
            0);
  // Newest-first dump: the last-indexed doc comes out first.
  EXPECT_EQ(text.find("\"ts_ns\":12"), text.find("\"ts_ns\""));
  EXPECT_EQ(run({}, nullptr), 2);
  EXPECT_EQ(run({"info", (dir + "/does-not-exist").c_str()}, &text), 0)
      << "an empty/missing store reads as empty, not an error";
  EXPECT_EQ(run({"frobnicate", dir.c_str()}, nullptr), 2);
}

// Regression (serving PR): `dump`, `serve-stats`, and direct queries on
// an empty store — no manifest, no WAL, even no directory — must return
// cleanly (zero results, exit 0) and must not create the store as a
// side effect of reading it.
TEST(StoreCli, DumpAndServeStatsOnEmptyStoreSucceedWithoutCreatingIt) {
  const std::string dir = fresh_dir("cli_empty");  // never created
  const auto run = [&](std::vector<const char*> args, std::string* text) {
    args.insert(args.begin(), "p4s-store");
    std::ostringstream out;
    std::ostringstream err;
    const int code = store_cli(static_cast<int>(args.size()), args.data(),
                               out, err);
    if (text != nullptr) *text = out.str() + err.str();
    return code;
  };
  std::string text;
  EXPECT_EQ(run({"dump", dir.c_str(), "p4sonar-throughput"}, &text), 0);
  EXPECT_EQ(text, "");
  EXPECT_EQ(run({"serve-stats", dir.c_str()}, &text), 0);
  EXPECT_NE(text.find("snapshots:"), std::string::npos);
  EXPECT_FALSE(fs::exists(dir))
      << "a read-only command materialized the store directory";

  // Direct API on a read-only empty store behaves the same way.
  Store store(dir, {}, OpenMode::read_only);
  std::size_t visited = 0;
  store.snapshot().scan("anything", ScanOptions{}, [&](const util::Json&) {
    ++visited;
    return true;
  });
  EXPECT_EQ(visited, 0u);
  EXPECT_EQ(store.snapshot().total_docs(), 0u);
  EXPECT_TRUE(store.snapshot().indices().empty());
  EXPECT_FALSE(store.snapshot().aggregate_column("anything", "x", "ts_ns", 0, 1)
                   .has_value());
  EXPECT_FALSE(fs::exists(dir));
}

TEST(StoreCli, ServeStatsReportsCacheAndPruningCounters) {
  const std::string dir = fresh_dir("cli_serve");
  {
    Store store(dir);
    for (int i = 0; i < 6; ++i) store.append("tput", doc_at(i, i));
    store.seal("tput");
  }
  const char* argv[] = {"p4s-store", "serve-stats", dir.c_str()};
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(store_cli(3, argv, out, err), 0) << err.str();
  const std::string text = out.str();
  // Two warm-up rounds over one segment: one miss, then one hit.
  EXPECT_NE(text.find("cache:            1 hit(s), 1 miss(es)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("snapshots:        2"), std::string::npos) << text;
  EXPECT_NE(text.find("gc:               0 retired"), std::string::npos)
      << text;
}

// ---------- tiered compaction ----------

// With fanin F, maintenance merges runs of F adjacent same-tier
// segments, so after N seals the live segment count stays logarithmic
// instead of linear — and doc order/continuity survives every merge.
TEST(StoreTiering, MaintainBoundsSegmentCountLogarithmically) {
  const std::string dir = fresh_dir("tiered");
  StoreConfig config;
  config.seal_min_docs = 4;
  config.compact_fanin = 2;
  Store store(dir, config);
  std::uint64_t max_segments = 0;
  for (int i = 0; i < 256; ++i) {
    store.append("idx", doc_at(i, i));
    store.maintain();
    max_segments =
        std::max(max_segments, store.snapshot().segment_count("idx"));
  }
  // 256 docs / 4-doc seals = 64 seals; untiered that is 64 segments.
  // fanin-2 tiering keeps ~log2(64) + slack live.
  EXPECT_LE(max_segments, 10u);
  EXPECT_GT(store.stats().compactions, 0u);
  EXPECT_EQ(store.snapshot().doc_count("idx"), 256u);

  // Order and content survived all the merging.
  std::int64_t expect_ts = 0;
  store.snapshot().scan("idx", ScanOptions{}, [&](const util::Json& doc) {
    EXPECT_EQ(doc.at("ts_ns").as_int(), expect_ts);
    ++expect_ts;
    return true;
  });
  EXPECT_EQ(expect_ts, 256);
  store.flush();
  EXPECT_TRUE(Store::verify(dir).ok);

  // fanin = 0 disables tiering entirely: seals accumulate.
  const std::string flat_dir = fresh_dir("untiered");
  StoreConfig flat_config;
  flat_config.seal_min_docs = 4;
  flat_config.compact_fanin = 0;
  Store flat(flat_dir, flat_config);
  for (int i = 0; i < 64; ++i) {
    flat.append("idx", doc_at(i, i));
    flat.maintain();
  }
  EXPECT_EQ(flat.snapshot().segment_count("idx"), 16u);
  EXPECT_EQ(flat.stats().compactions, 0u);
}

}  // namespace
}  // namespace p4s::store
