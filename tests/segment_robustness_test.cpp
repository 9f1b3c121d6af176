// Segment-decoding robustness: seeded bit flips, truncations and span
// moves of a sealed segment's body go through store::Segment::load — the
// decoder behind every archive read. The trailing CRC is recomputed over
// each mutated body, so the loader's own bounds checks run instead of
// the checksum refusing everything. Every mutation must either raise
// StoreError or load; a loaded segment must then visit its documents,
// decode its columns and answer postings and bloom lookups without
// fault. This suite runs under the ASan/UBSan CI job with several
// P4S_SEED values.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mutate.hpp"
#include "p4/hash.hpp"
#include "store/codec.hpp"
#include "store/segment.hpp"
#include "util/json.hpp"

namespace p4s::store {
namespace {

namespace fs = std::filesystem;

const char* const kSites[] = {"s0", "s1", "s2"};
const char* const kColumns[] = {"ts_ns", "throughput_bps", "bytes"};

std::string test_path(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "p4s_segment_" + info->name() + "_" + name;
}

std::uint32_t body_crc(const std::string& body) {
  return p4::Crc32()(
      {reinterpret_cast<const std::uint8_t*>(body.data()), body.size()});
}

// Magic and version, `body`, then the CRC over `body`.
std::string sealed(const std::string& head, const std::string& body) {
  std::string file = head + body;
  put_u32(file, body_crc(body));
  return file;
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// A small segment that carries every block: int and double columns, a
// delta-encoded time column, a posting-indexed site field and nested
// fields for the bloom filter.
std::string corpus_segment() {
  std::vector<util::Json> docs;
  for (int i = 0; i < 16; ++i) {
    util::Json doc = util::Json::object();
    doc["ts_ns"] = 1'000 + 37 * i;
    doc["throughput_bps"] = 900'000 + 1'111 * i;
    if (i % 3 != 0) doc["bytes"] = 0.25 * i;
    doc["switch_id"] = kSites[i % 3];
    util::Json flow = util::Json::object();
    flow["dst_ip"] = "10.1.0." + std::to_string(i);
    doc["flow"] = std::move(flow);
    docs.push_back(std::move(doc));
  }
  const std::string path = test_path("corpus.seg");
  write_segment(path, "tput", 64, docs);
  std::string bytes = test::read_file(path);
  fs::remove(path);
  return bytes;
}

// Everything a scan or an aggregation asks of a loaded segment.
void exercise(const Segment& seg) {
  const std::uint64_t docs = seg.info().docs;
  for (const bool reverse : {false, true}) {
    std::uint64_t visited = 0;
    seg.for_each_doc(reverse, [&](std::uint64_t, std::string_view text) {
      ++visited;
      try {
        (void)util::Json::parse(text);
      } catch (const util::JsonError&) {
        // A damaged document is the JSON decoder's to refuse.
      }
      return true;
    });
    EXPECT_EQ(visited, docs);
  }
  for (const char* column : kColumns) {
    try {
      // Empty when the damaged header no longer names the column.
      const auto values = seg.decode_column(column);
      if (!values.empty()) EXPECT_EQ(values.size(), docs);
    } catch (const StoreError&) {
    }
  }
  for (const char* site : kSites) {
    const std::string key = term_key("switch_id", util::Json(site));
    (void)seg.maybe_contains_term(key);
    const auto rows = seg.postings(key);
    if (!rows.has_value()) continue;
    for (std::size_t i = 0; i < rows->size(); ++i) {
      ASSERT_LT((*rows)[i], docs);
      if (i > 0) ASSERT_LT((*rows)[i - 1], (*rows)[i]);
      (void)seg.doc_text((*rows)[i]);
    }
  }
  (void)seg.postings(term_key("flow.dst_ip", util::Json("10.1.0.3")));
}

TEST(SegmentRobustness, MutatedBodiesLoadOrThrowStoreError) {
  const std::string good = corpus_segment();
  ASSERT_GT(good.size(), 12u);
  const std::string head = good.substr(0, 8);
  const std::string body = good.substr(8, good.size() - 12);
  const std::string path = test_path("mutated.seg");

  // The unmutated corpus loads and exercises cleanly.
  write_bytes(path, sealed(head, body));
  exercise(Segment::load(path));

  test::Mutator m;
  int refused = 0;
  int loaded = 0;
  for (int round = 0; round < 600; ++round) {
    std::string mutated = body;
    switch (round % 3) {
      case 0:
        for (std::size_t n = 1 + m.below(3); n > 0; --n) m.flip_bit(mutated);
        break;
      case 1:
        m.truncate(mutated);
        break;
      default:
        m.move_span(mutated, 32);
    }
    SCOPED_TRACE("round " + std::to_string(round));
    write_bytes(path, sealed(head, mutated));
    try {
      const Segment seg = Segment::load(path);
      ++loaded;
      exercise(seg);
    } catch (const StoreError&) {
      ++refused;
    }
  }
  fs::remove(path);
  // The battery reaches both outcomes.
  EXPECT_GT(refused, 0);
  EXPECT_GT(loaded, 0);
}

}  // namespace
}  // namespace p4s::store
