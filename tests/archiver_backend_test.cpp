// Tests: the archiver's storage-backend seam. Every ArchiverQuery edge
// case runs against BOTH backends (in-memory and durable store) and must
// produce byte-identical results; a grep-enforced test pins all archiver
// consumers to the seam (no direct index-map access anywhere in psonar).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "psonar/archiver.hpp"
#include "psonar/store_backend.hpp"
#include "store/store.hpp"

namespace p4s::ps {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "p4s_backend_" + name;
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

/// A pair of archivers fed identical documents: one on MemoryBackend, one
/// on a StoreBackend whose store is part-sealed, part-memtable (so every
/// query crosses the segment/memtable boundary).
class BothBackendsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fresh_dir(
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    store_ = std::make_unique<store::Store>(dir_);
    durable_.set_backend(std::make_unique<StoreBackend>(*store_));
  }

  void add(const std::string& index, util::Json doc) {
    durable_.index(index, doc);
    memory_.index(index, std::move(doc));
  }

  void seal() { store_->seal_all(); }

  /// search() on both backends must dump byte-identically.
  void expect_same(const std::string& index,
                   const Archiver::Query& query) const {
    const auto mem = memory_.search(index, query);
    const auto dur = durable_.search(index, query);
    ASSERT_EQ(mem.size(), dur.size());
    for (std::size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(mem[i].dump(), dur[i].dump()) << "doc " << i;
    }
  }

  std::string dir_;
  std::unique_ptr<store::Store> store_;
  Archiver memory_;
  Archiver durable_;
};

TEST_F(BothBackendsTest, PopulatedQueriesAgree) {
  const char* sites[] = {"lbl", "anl"};
  for (int i = 0; i < 12; ++i) {
    add("tput", doc_at(100 * i, i, sites[i % 2]));
  }
  seal();  // first dozen in a segment...
  for (int i = 12; i < 18; ++i) {
    add("tput", doc_at(100 * i, i, sites[i % 2]));  // ...rest in memtable
  }

  expect_same("tput", {});
  Archiver::Query by_site;
  by_site.terms["switch_id"] = util::Json("anl");
  expect_same("tput", by_site);
  Archiver::Query range;
  range.range_field = "ts_ns";
  range.range_min = 450;
  range.range_max = 1350;
  expect_same("tput", range);

  // The kitchen sink: limit + newest_first + range combined.
  Archiver::Query combined;
  combined.range_field = "ts_ns";
  combined.range_min = 200;
  combined.range_max = 1500;
  combined.limit = 4;
  combined.newest_first = true;
  expect_same("tput", combined);
  const auto hits = durable_.search("tput", combined);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits[0].at("ts_ns").as_int(), 1500);
  EXPECT_EQ(hits[3].at("ts_ns").as_int(), 1200);

  // limit=0 means unlimited, not zero results.
  Archiver::Query unlimited;
  unlimited.limit = 0;
  expect_same("tput", unlimited);
  EXPECT_EQ(durable_.search("tput", unlimited).size(), 18u);

  // Aggregations agree too (exactly-representable integer values, so the
  // columnar fast path and the generic fold sum identically).
  for (const auto& query :
       {Archiver::Query{}, range, by_site, combined}) {
    const auto mem_agg = memory_.aggregate("tput", "throughput_bps", query);
    const auto dur_agg =
        durable_.aggregate("tput", "throughput_bps", query);
    EXPECT_EQ(mem_agg.count, dur_agg.count);
    EXPECT_EQ(mem_agg.min, dur_agg.min);
    EXPECT_EQ(mem_agg.max, dur_agg.max);
    EXPECT_EQ(mem_agg.sum, dur_agg.sum);
    EXPECT_EQ(mem_agg.avg, dur_agg.avg);
  }
}

TEST_F(BothBackendsTest, EmptyAndUnknownIndices) {
  expect_same("never-written", {});
  EXPECT_TRUE(durable_.search("never-written", {}).empty());
  EXPECT_EQ(durable_.doc_count("never-written"), 0u);
  EXPECT_EQ(memory_.aggregate("never-written", "x", {}).count, 0u);
  EXPECT_EQ(durable_.aggregate("never-written", "x", {}).count, 0u);
  EXPECT_TRUE(durable_.indices().empty());
  EXPECT_EQ(durable_.total_docs(), 0u);

  Archiver::Query query;
  query.range_field = "ts_ns";
  query.range_min = 0;
  query.limit = 3;
  query.newest_first = true;
  expect_same("never-written", query);
}

TEST_F(BothBackendsTest, RangeFieldMissingFromSomeDocs) {
  for (int i = 0; i < 6; ++i) {
    add("mixed", doc_at(100 * i, i, "lbl"));
    util::Json bare = util::Json::object();  // no ts_ns at all
    bare["note"] = "no-timestamp";
    bare["throughput_bps"] = 1000 + i;
    add("mixed", std::move(bare));
  }
  seal();
  Archiver::Query range;
  range.range_field = "ts_ns";
  range.range_min = 100;
  range.range_max = 400;
  expect_same("mixed", range);
  // Docs without the range field never match a range query.
  EXPECT_EQ(durable_.search("mixed", range).size(), 4u);
  // Without a range, the bare docs are back.
  expect_same("mixed", {});
  EXPECT_EQ(durable_.search("mixed", {}).size(), 12u);
  // Aggregating a field only some docs carry: both paths skip absentees.
  const auto mem_agg = memory_.aggregate("mixed", "ts_ns", {});
  const auto dur_agg = durable_.aggregate("mixed", "ts_ns", {});
  EXPECT_EQ(mem_agg.count, 6u);
  EXPECT_EQ(dur_agg.count, 6u);
  EXPECT_EQ(mem_agg.sum, dur_agg.sum);
}

TEST_F(BothBackendsTest, TermOnNestedPathAndNonScalarValue) {
  for (int i = 0; i < 4; ++i) {
    util::Json doc = doc_at(i, i, "lbl");
    util::Json flow = util::Json::object();
    flow["dst_ip"] = (i % 2 == 0) ? "10.1.0.10" : "10.1.0.11";
    doc["flow"] = std::move(flow);
    add("nested", std::move(doc));
  }
  seal();
  Archiver::Query nested;
  nested.terms["flow.dst_ip"] = util::Json("10.1.0.10");
  expect_same("nested", nested);
  EXPECT_EQ(durable_.search("nested", nested).size(), 2u);
  // A non-scalar term value gets no bloom key; it must still filter
  // correctly (just without pruning).
  Archiver::Query object_term;
  util::Json want = util::Json::object();
  want["dst_ip"] = "10.1.0.10";
  object_term.terms["flow"] = std::move(want);
  expect_same("nested", object_term);
  EXPECT_EQ(durable_.search("nested", object_term).size(), 2u);
}

TEST(ArchiverSeam, SetBackendOnlyWhileEmpty) {
  Archiver archiver;
  archiver.set_backend(std::make_unique<MemoryBackend>());  // empty: fine
  archiver.index("idx", util::Json::object());
  EXPECT_THROW(archiver.set_backend(std::make_unique<MemoryBackend>()),
               std::logic_error);
  EXPECT_THROW(archiver.set_backend(nullptr), std::logic_error);
}

// Satellite 4, grep-enforced: archiver consumers (and the Archiver
// facade itself) must route through the backend seam. None of them may
// hold or touch a direct index map — the old `indices_` member is gone
// and must stay gone everywhere except the backend implementations.
TEST(ArchiverSeam, NoDirectIndexMapAccessOutsideBackends) {
  const std::string source_dir = P4S_SOURCE_DIR;
  const char* files[] = {
      "psonar/archiver.hpp",    "psonar/archiver.cpp",
      "psonar/analytics.cpp",   "psonar/maddash.cpp",
      "psonar/logstash.cpp",    "psonar/node.hpp",
      "psonar/store_backend.cpp",
  };
  for (const char* file : files) {
    const std::string path = source_dir + "/" + file;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    EXPECT_EQ(text.find("indices_"), std::string::npos)
        << file << " touches a direct index map instead of the "
        << "ArchiverBackend seam";
    EXPECT_EQ(text.find("docs_by_index_"), std::string::npos)
        << file << " reaches into MemoryBackend storage";
  }
}

// Property-based equivalence (satellite of the serving PR): a seeded
// random document corpus and a seeded random query mix must produce
// byte-identical results from the MemoryBackend, from a cold
// StoreBackend (freshly reopened, so each segment's first read loads it
// from disk), and from the same StoreBackend warm (second pass over the
// loaded segments). Any divergence between the serving read path
// (snapshots, posting lists, segment loading, tiered segments) and the
// reference in-memory scan fails with the query number for replay.
namespace property {

struct RandomCorpus {
  std::mt19937 rng{20260808};
  const std::vector<std::string> sites{"s0", "s1", "s2", "s3"};

  util::Json make_doc(int i) {
    util::Json doc = util::Json::object();
    // ~1 in 8 docs has no timestamp at all (range queries must skip it).
    if (rng() % 8 != 0) {
      doc["ts_ns"] = static_cast<std::int64_t>(rng() % 5000) * 100;
    }
    doc["throughput_bps"] = static_cast<std::int64_t>(rng() % 4096);
    doc["switch_id"] = sites[rng() % sites.size()];
    if (rng() % 4 == 0) {
      util::Json flow = util::Json::object();
      flow["dst_ip"] = (rng() % 2 == 0) ? "10.1.0.10" : "10.1.0.11";
      doc["flow"] = std::move(flow);
    }
    doc["seq"] = static_cast<std::int64_t>(i);  // ties every doc to its slot
    return doc;
  }

  ArchiverQuery make_query() {
    ArchiverQuery query;
    if (rng() % 2 == 0) {
      query.range_field = "ts_ns";
      const auto lo = static_cast<double>(rng() % 500'000);
      switch (rng() % 3) {
        case 0: query.range_min = lo; break;
        case 1: query.range_max = lo; break;
        default:
          query.range_min = lo;
          query.range_max = lo + static_cast<double>(rng() % 200'000);
      }
    }
    switch (rng() % 4) {
      case 0:
        query.terms["switch_id"] = util::Json(sites[rng() % sites.size()]);
        break;
      case 1:
        query.terms["flow.dst_ip"] = util::Json("10.1.0.10");
        break;
      default: break;  // half the queries have no term
    }
    const std::size_t limits[] = {0, 0, 1, 3, 10};
    query.limit = limits[rng() % 5];
    query.newest_first = (rng() % 2) == 0;
    return query;
  }
};

std::vector<std::string> collect(const Archiver& archiver,
                                 const std::string& index,
                                 const ArchiverQuery& query) {
  std::vector<std::string> dumps;
  archiver.for_each(index, query, [&](const util::Json& doc) {
    dumps.push_back(doc.dump());
    return true;
  });
  return dumps;
}

TEST(BackendEquivalenceProperty, SeededRandomQueriesAgreeColdAndWarm) {
  const std::string dir = fresh_dir("property");
  RandomCorpus corpus;

  Archiver memory;
  const char* indices[] = {"tput", "loss"};
  {
    // Small segments + aggressive tiering: the corpus ends up spread
    // over several merged segments plus an unsealed memtable tail.
    store::StoreConfig config;
    config.wal_batch_docs = 8;
    config.seal_min_docs = 16;
    config.compact_fanin = 2;
    store::Store store(dir, config);
    Archiver durable;
    durable.set_backend(std::make_unique<StoreBackend>(store));
    for (int i = 0; i < 400; ++i) {
      const std::string index = indices[corpus.rng() % 2];
      util::Json doc = corpus.make_doc(i);
      durable.index(index, doc);
      memory.index(index, std::move(doc));
      if (i % 32 == 31) store.maintain();
    }
    store.flush();  // commit the tail; do NOT seal it — keep a memtable
  }

  // Cold: a freshly reopened read-only store, so each segment's first
  // read is a genuine load from disk.
  store::Store reopened(dir, {}, store::OpenMode::read_only);
  Archiver cold;
  cold.set_backend(std::make_unique<StoreBackend>(reopened));

  corpus.rng.seed(977);  // query stream is independently replayable
  for (int q = 0; q < 200; ++q) {
    const ArchiverQuery query = corpus.make_query();
    for (const char* index : indices) {
      SCOPED_TRACE("query " + std::to_string(q) + " on " + index);
      const auto want = collect(memory, index, query);
      const auto got_cold = collect(cold, index, query);
      ASSERT_EQ(want, got_cold);
      // Warm: same archiver again — now served from the segments the
      // cold pass loaded.
      const auto got_warm = collect(cold, index, query);
      ASSERT_EQ(want, got_warm);

      if (query.limit == 0) {
        const auto mem_agg = memory.aggregate(index, "throughput_bps", query);
        const auto dur_agg = cold.aggregate(index, "throughput_bps", query);
        ASSERT_EQ(mem_agg.count, dur_agg.count);
        ASSERT_EQ(mem_agg.min, dur_agg.min);
        ASSERT_EQ(mem_agg.max, dur_agg.max);
        ASSERT_EQ(mem_agg.sum, dur_agg.sum);  // integral values: exact
      }
    }
  }

  // The cold pass really did run the serving machinery, not a fallback.
  const auto stats = reopened.stats();
  EXPECT_GT(stats.snapshots, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

}  // namespace property

}  // namespace
}  // namespace p4s::ps
