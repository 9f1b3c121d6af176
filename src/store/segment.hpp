// Immutable sealed segments: the store's on-disk read path.
//
// A segment holds one index's documents for a contiguous sequence range
// [base_seq, base_seq + docs). Layout:
//
//   u32 magic "P4SG"  u32 version
//   blob header_json        — index, docs, base_seq, time field,
//                             per-column summaries, bloom parameters,
//                             posting-indexed fields
//   blob docs_block         — per doc: blob of its JSON text
//   blob columns_block      — per column: blob of tagged values
//                             (0 = missing, 1 = svarint int — the time
//                             column delta-encodes against the previous
//                             present value, 2 = raw 8-byte LE double)
//   blob bloom_block        — bit array over "path=value" term keys
//   blob postings_block     — per-term sorted row-id lists for
//                             low-cardinality fields: varint n_terms,
//                             then per term blob key, varint n_rows,
//                             delta-varint row ids
//   u32 crc32               — over everything after magic+version
//
// The header carries everything query planning needs (per-column
// min/max/sum/count — the time column's bounds are the segment's time
// span — term bloom, posting coverage) so ArchiverQuery time ranges and
// exact-match terms can prune a segment
// without touching its documents, and no-filter aggregations can combine
// column summaries without parsing a single JSON byte. Posting lists go
// one step further than the bloom filter: for a covered field, a term
// query seeks directly to the matching rows instead of parsing every
// document of a surviving segment. Fields are posting-indexed only when
// their distinct-value count is at most half the doc count (identity
// fields like switch_id — never timestamps or measurement values, whose
// posting lists would be as large as the data). Any structural damage —
// bad magic, a version other than kSegmentVersion, short file, CRC
// mismatch, out-of-range or unsorted posting rows — raises StoreError;
// segments have no "truncated tail" tolerance (that's the WAL's job).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "store/codec.hpp"
#include "util/json.hpp"

namespace p4s::store {

inline constexpr std::uint32_t kSegmentMagic = 0x47533450;  // "P4SG" LE
/// v2 added the postings block; no other version is read.
inline constexpr std::uint32_t kSegmentVersion = 2;

/// The time field: always the first column, delta-encoded. Every
/// segment's header names it.
inline constexpr std::string_view kTimeField = "ts_ns";
/// The other numeric fields every segment encodes columnar.
inline constexpr std::array<std::string_view, 2> kHotFields = {
    "throughput_bps", "bytes"};

/// True for kTimeField and kHotFields: the fields whose per-segment
/// summaries answer aggregations and prune ranges.
bool is_columnar(std::string_view field);

/// Numeric statistics for one hot column, over the documents that carry
/// the field as a number (count says how many did).
struct ColumnSummary {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  void add(double v) {
    min = count == 0 ? v : std::min(min, v);
    max = count == 0 ? v : std::max(max, v);
    sum += v;
    ++count;
  }
  /// Fold in another summary; an empty one changes nothing.
  void merge(const ColumnSummary& s) {
    if (s.count == 0) return;
    min = count == 0 ? s.min : std::min(min, s.min);
    max = count == 0 ? s.max : std::max(max, s.max);
    sum += s.sum;
    count += s.count;
  }
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

struct SegmentInfo {
  std::string index;
  std::uint64_t docs = 0;
  std::uint64_t base_seq = 0;
};

/// Build the bloom/term key for an exact-match term (dotted path and the
/// JSON value it must equal). Only scalar values get keys; object/array
/// terms are never pruned.
std::string term_key(const std::string& path, const util::Json& value);

/// Resolve a dotted path ("flow.dst_ip") inside a document — the store's
/// canonical field resolver (ps::Archiver::field_at forwards here so the
/// write path, the bloom keys, and the query path agree byte for byte).
std::optional<util::Json> json_field_at(const util::Json& doc,
                                        const std::string& path);

/// What write_segment() hands back for the store's manifest: enough
/// metadata to plan queries without reopening the file.
struct SegmentBuildResult {
  SegmentInfo info;
  std::map<std::string, ColumnSummary> summaries;
};

/// Write a sealed segment. `docs` are the documents in sequence order
/// (seq = base_seq + position). kTimeField and kHotFields are encoded
/// columnar. Throws StoreError on I/O failure.
SegmentBuildResult write_segment(const std::string& path,
                                 const std::string& index,
                                 std::uint64_t base_seq,
                                 const std::vector<util::Json>& docs);

/// Same, over borrowed documents (the store's memtable chunks hand out
/// shared documents; sealing must not deep-copy them first).
SegmentBuildResult write_segment(const std::string& path,
                                 const std::string& index,
                                 std::uint64_t base_seq,
                                 const std::vector<const util::Json*>& docs);

/// A loaded, validated segment. Load reads and checksums the whole file
/// up front; document JSON is parsed lazily per visit.
class Segment {
 public:
  static Segment load(const std::string& path);

  const SegmentInfo& info() const { return info_; }

  /// True if the segment *may* contain a document matching the term key;
  /// false is definitive (the bloom filter has no false negatives).
  bool maybe_contains_term(const std::string& key) const;

  /// True when the dotted path was posting-indexed in this segment (its
  /// term keys have exact row lists).
  bool postings_cover_field(const std::string& path) const;

  /// Exact ascending row ids matching a term key. nullopt = the key's
  /// field is not posting-indexed here (fall back to bloom + scan); an
  /// empty vector is definitive (field covered, term absent).
  std::optional<std::vector<std::uint32_t>> postings(
      const std::string& key) const;

  /// Raw JSON text of one document row (0 <= row < info().docs).
  std::string_view doc_text(std::size_t row) const {
    return doc_texts_[row];
  }

  /// Decode a column to per-document values (nullopt = the document had
  /// no numeric value at that path). Returns an empty vector for
  /// non-columnar fields.
  std::vector<std::optional<double>> decode_column(
      const std::string& field) const;

  /// Visit documents (raw JSON text) in sequence order, or reversed.
  /// The visitor returns false to stop.
  void for_each_doc(
      bool reverse,
      const std::function<bool(std::uint64_t seq, std::string_view doc)>&
          visit) const;

 private:
  Segment() = default;

  SegmentInfo info_;
  std::string time_field_;
  std::vector<std::string> doc_texts_;
  std::map<std::string, std::string> column_bytes_;
  std::string bloom_bits_;
  std::uint32_t bloom_hashes_ = 0;
  std::vector<std::string> posting_fields_;  // sorted dotted paths
  std::map<std::string, std::vector<std::uint32_t>> postings_;
};

}  // namespace p4s::store
