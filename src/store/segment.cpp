#include "store/segment.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "p4/hash.hpp"

namespace p4s::store {

namespace {

std::uint32_t bytes_crc(std::string_view data, std::uint32_t seed = 0) {
  return p4::Crc32(seed)(
      {reinterpret_cast<const std::uint8_t*>(data.data()), data.size()});
}

constexpr std::uint32_t kBloomHashes = 4;
constexpr std::size_t kBloomBitsPerKey = 10;
constexpr std::size_t kBloomMinBits = 512;
// Independent-ish hash seeds per bloom probe (golden-ratio stride).
constexpr std::uint32_t kBloomSeedStride = 0x9e3779b9u;

void bloom_set(std::string& bits, const std::string& key) {
  const std::size_t nbits = bits.size() * 8;
  for (std::uint32_t i = 0; i < kBloomHashes; ++i) {
    const std::uint32_t h = bytes_crc(key, i * kBloomSeedStride);
    const std::size_t bit = h % nbits;
    bits[bit / 8] |= static_cast<char>(1u << (bit % 8));
  }
}

bool bloom_test(std::string_view bits, std::uint32_t hashes,
                const std::string& key) {
  const std::size_t nbits = bits.size() * 8;
  if (nbits == 0) return true;  // degenerate: cannot prune
  for (std::uint32_t i = 0; i < hashes; ++i) {
    const std::uint32_t h = bytes_crc(key, i * kBloomSeedStride);
    const std::size_t bit = h % nbits;
    if (!(static_cast<std::uint8_t>(bits[bit / 8]) & (1u << (bit % 8)))) {
      return false;
    }
  }
  return true;
}

/// One leaf-scalar term occurrence: the dotted path, its bloom/posting
/// key, and the row that carries it.
struct TermOccurrence {
  std::string path;
  std::string key;
  std::uint32_t row;
};

/// Collect every leaf-scalar "path=value" term of a document (recursing
/// through objects; arrays and the objects themselves get no key,
/// matching the pruning contract in term_key()).
void collect_terms(const util::Json& value, const std::string& path,
                   std::uint32_t row, std::vector<TermOccurrence>& out) {
  if (value.is_object()) {
    for (const auto& [k, v] : value.as_object()) {
      collect_terms(v, path.empty() ? k : path + "." + k, row, out);
    }
    return;
  }
  if (value.is_array()) return;
  if (!path.empty()) out.push_back({path, term_key(path, value), row});
}

enum : std::uint8_t { kTagMissing = 0, kTagInt = 1, kTagDouble = 2 };

// Time-column deltas wrap modulo 2^64, so any two int64 timestamps
// round-trip without signed overflow.
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
std::int64_t wrapping_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}

}  // namespace

std::optional<util::Json> json_field_at(const util::Json& doc,
                                        const std::string& path) {
  const util::Json* cur = &doc;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = path.find('.', start);
    const std::string key = path.substr(
        start, dot == std::string::npos ? std::string::npos : dot - start);
    if (!cur->is_object() || !cur->contains(key)) return std::nullopt;
    cur = &cur->at(key);
    if (dot == std::string::npos) break;
    start = dot + 1;
  }
  return *cur;
}

std::string term_key(const std::string& path, const util::Json& value) {
  return path + "=" + value.dump();
}

bool is_columnar(std::string_view field) {
  return field == kTimeField ||
         std::find(kHotFields.begin(), kHotFields.end(), field) !=
             kHotFields.end();
}

SegmentBuildResult write_segment(const std::string& path,
                                 const std::string& index,
                                 std::uint64_t base_seq,
                                 const std::vector<util::Json>& docs) {
  std::vector<const util::Json*> borrowed;
  borrowed.reserve(docs.size());
  for (const auto& doc : docs) borrowed.push_back(&doc);
  return write_segment(path, index, base_seq, borrowed);
}

SegmentBuildResult write_segment(const std::string& path,
                                 const std::string& index,
                                 std::uint64_t base_seq,
                                 const std::vector<const util::Json*>& docs) {
  // Column order: time field first, then the hot fields.
  std::vector<std::string> columns{std::string(kTimeField)};
  columns.insert(columns.end(), kHotFields.begin(), kHotFields.end());

  std::string docs_block;
  std::vector<TermOccurrence> terms;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    put_blob(docs_block, docs[i]->dump());
    collect_terms(*docs[i], "", static_cast<std::uint32_t>(i), terms);
  }

  SegmentInfo info;
  info.index = index;
  info.docs = docs.size();
  info.base_seq = base_seq;
  std::map<std::string, ColumnSummary> summaries;
  std::string columns_block;
  for (const auto& field : columns) {
    ColumnSummary summary;
    std::string encoded;
    std::int64_t prev_int = 0;  // delta base for the time column
    const bool is_time = field == kTimeField;
    for (const util::Json* doc_ptr : docs) {
      const auto value = json_field_at(*doc_ptr, field);
      if (!value.has_value() || !value->is_number()) {
        encoded.push_back(static_cast<char>(kTagMissing));
        continue;
      }
      const double v = value->as_double();
      summary.add(v);
      if (value->is_int()) {
        const std::int64_t i = value->as_int();
        encoded.push_back(static_cast<char>(kTagInt));
        put_svarint(encoded, is_time ? wrapping_sub(i, prev_int) : i);
        if (is_time) prev_int = i;
      } else {
        encoded.push_back(static_cast<char>(kTagDouble));
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        put_u64(encoded, bits);
      }
    }
    summaries[field] = summary;
    put_blob(columns_block, encoded);
  }

  std::string bloom((std::max(kBloomMinBits,
                              terms.size() * kBloomBitsPerKey) +
                     7) /
                        8,
                    '\0');
  for (const auto& term : terms) bloom_set(bloom, term.key);

  // Posting lists: per-field term -> sorted rows, kept only for
  // low-cardinality fields (distinct values <= half the docs). Identity
  // fields (site, report type, destination) qualify; timestamps and
  // measurement values — distinct per row — do not, and the bloom filter
  // still covers them.
  std::map<std::string, std::map<std::string, std::vector<std::uint32_t>>>
      by_field;
  for (const auto& term : terms) {
    auto& rows = by_field[term.path][term.key];
    if (rows.empty() || rows.back() != term.row) rows.push_back(term.row);
  }
  std::vector<std::string> posting_fields;
  std::map<std::string, std::vector<std::uint32_t>> postings;
  for (const auto& [field, keyed] : by_field) {
    if (docs.size() < 2 || keyed.size() * 2 > docs.size()) continue;
    posting_fields.push_back(field);
    for (const auto& [key, rows] : keyed) postings[key] = rows;
  }
  std::string postings_block;
  put_varint(postings_block, postings.size());
  for (const auto& [key, rows] : postings) {
    put_blob(postings_block, key);
    put_varint(postings_block, rows.size());
    std::uint32_t prev = 0;
    for (const std::uint32_t row : rows) {
      put_varint(postings_block, row - prev);
      prev = row;
    }
  }

  util::Json header = util::Json::object();
  header["index"] = index;
  header["docs"] = docs.size();
  header["base_seq"] = base_seq;
  header["time_field"] = std::string(kTimeField);
  header["bloom_hashes"] = kBloomHashes;
  util::JsonArray posting_meta;
  for (const auto& field : posting_fields) {
    posting_meta.push_back(util::Json(field));
  }
  header["posting_fields"] = util::Json(std::move(posting_meta));
  util::JsonArray column_meta;
  for (const auto& field : columns) {
    const auto& s = summaries[field];
    util::Json entry = util::Json::object();
    entry["field"] = field;
    entry["count"] = s.count;
    entry["min"] = s.min;
    entry["max"] = s.max;
    entry["sum"] = s.sum;
    column_meta.push_back(std::move(entry));
  }
  header["columns"] = util::Json(std::move(column_meta));

  std::string body;
  put_blob(body, header.dump());
  put_blob(body, docs_block);
  put_blob(body, columns_block);
  put_blob(body, bloom);
  put_blob(body, postings_block);

  std::string file;
  put_u32(file, kSegmentMagic);
  put_u32(file, kSegmentVersion);
  file += body;
  put_u32(file, bytes_crc(body));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw StoreError("segment: cannot open " + path);
  out.write(file.data(), static_cast<std::streamsize>(file.size()));
  out.flush();
  if (!out) throw StoreError("segment: write failed on " + path);
  return {info, std::move(summaries)};
}

Segment Segment::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("segment: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();
  if (data.size() < 12) throw StoreError("segment: short file " + path);

  ByteReader head(data);
  if (head.u32() != kSegmentMagic) {
    throw StoreError("segment: bad magic in " + path);
  }
  const auto version = head.u32();
  if (version != kSegmentVersion) {
    throw StoreError("segment: unsupported version in " + path);
  }
  const std::string_view body =
      std::string_view(data).substr(8, data.size() - 12);
  ByteReader tail(std::string_view(data).substr(data.size() - 4));
  if (bytes_crc(body) != tail.u32()) {
    throw StoreError("segment: CRC mismatch in " + path);
  }

  ByteReader r(body);
  const auto header_text = r.blob();
  const auto docs_block = r.blob();
  const auto columns_block = r.blob();
  const auto bloom_block = r.blob();
  const auto postings_block = r.blob();
  if (!header_text || !docs_block || !columns_block || !bloom_block ||
      !postings_block) {
    throw StoreError("segment: malformed sections in " + path);
  }

  Segment seg;
  std::vector<std::string> column_order;
  try {
    const util::Json header = util::Json::parse(*header_text);
    seg.info_.index = header.at("index").as_string();
    seg.info_.docs = static_cast<std::uint64_t>(header.at("docs").as_int());
    seg.info_.base_seq =
        static_cast<std::uint64_t>(header.at("base_seq").as_int());
    seg.time_field_ = header.at("time_field").as_string();
    seg.bloom_hashes_ =
        static_cast<std::uint32_t>(header.at("bloom_hashes").as_int());
    for (const auto& entry : header.at("columns").as_array()) {
      column_order.push_back(entry.at("field").as_string());
    }
    for (const auto& field : header.at("posting_fields").as_array()) {
      seg.posting_fields_.push_back(field.as_string());
    }
    std::sort(seg.posting_fields_.begin(), seg.posting_fields_.end());
  } catch (const util::JsonError& e) {
    throw StoreError("segment: bad header in " + path + ": " + e.what());
  }

  ByteReader docs(*docs_block);
  for (std::uint64_t i = 0; i < seg.info_.docs; ++i) {
    const auto text = docs.blob();
    if (!text) throw StoreError("segment: doc count mismatch in " + path);
    seg.doc_texts_.emplace_back(*text);
  }
  ByteReader cols(*columns_block);
  for (const auto& field : column_order) {
    const auto bytes = cols.blob();
    if (!bytes) throw StoreError("segment: column mismatch in " + path);
    seg.column_bytes_[field] = std::string(*bytes);
  }
  seg.bloom_bits_ = std::string(*bloom_block);
  ByteReader posts(*postings_block);
  const auto n_terms = posts.varint();
  if (!n_terms) throw StoreError("segment: bad postings in " + path);
  for (std::uint64_t t = 0; t < *n_terms; ++t) {
    const auto key = posts.blob();
    const auto n_rows = posts.varint();
    if (!key || !n_rows || *n_rows > seg.info_.docs) {
      throw StoreError("segment: bad postings in " + path);
    }
    std::vector<std::uint32_t> rows;
    rows.reserve(static_cast<std::size_t>(*n_rows));
    std::uint64_t prev = 0;
    for (std::uint64_t i = 0; i < *n_rows; ++i) {
      const auto delta = posts.varint();
      if (!delta) throw StoreError("segment: bad postings in " + path);
      const std::uint64_t row = prev + *delta;
      // Rows must stay strictly ascending and inside the segment.
      if (row >= seg.info_.docs || (i > 0 && row <= prev)) {
        throw StoreError("segment: posting row out of range in " + path);
      }
      rows.push_back(static_cast<std::uint32_t>(row));
      prev = row;
    }
    seg.postings_[std::string(*key)] = std::move(rows);
  }
  return seg;
}

bool Segment::maybe_contains_term(const std::string& key) const {
  return bloom_test(bloom_bits_, bloom_hashes_, key);
}

bool Segment::postings_cover_field(const std::string& path) const {
  return std::binary_search(posting_fields_.begin(), posting_fields_.end(),
                            path);
}

std::optional<std::vector<std::uint32_t>> Segment::postings(
    const std::string& key) const {
  // The key's field is everything before the '=' term_key() appended.
  const std::size_t eq = key.find('=');
  if (eq == std::string::npos ||
      !postings_cover_field(key.substr(0, eq))) {
    return std::nullopt;
  }
  const auto it = postings_.find(key);
  if (it == postings_.end()) return std::vector<std::uint32_t>{};
  return it->second;
}

std::vector<std::optional<double>> Segment::decode_column(
    const std::string& field) const {
  const auto it = column_bytes_.find(field);
  if (it == column_bytes_.end()) return {};
  std::vector<std::optional<double>> values;
  values.reserve(info_.docs);
  ByteReader r(it->second);
  const bool is_time = field == time_field_;
  std::int64_t prev_int = 0;
  for (std::uint64_t i = 0; i < info_.docs; ++i) {
    const auto tag = r.bytes(1);
    if (!tag) throw StoreError("segment: truncated column " + field);
    switch (static_cast<std::uint8_t>((*tag)[0])) {
      case kTagMissing:
        values.emplace_back(std::nullopt);
        break;
      case kTagInt: {
        const auto delta = r.svarint();
        if (!delta) throw StoreError("segment: truncated column " + field);
        const std::int64_t v =
            is_time ? wrapping_add(prev_int, *delta) : *delta;
        if (is_time) prev_int = v;
        values.emplace_back(static_cast<double>(v));
        break;
      }
      case kTagDouble: {
        const auto bits = r.u64();
        if (!bits) throw StoreError("segment: truncated column " + field);
        double v = 0;
        std::memcpy(&v, &*bits, sizeof(v));
        values.emplace_back(v);
        break;
      }
      default:
        throw StoreError("segment: bad column tag in " + field);
    }
  }
  return values;
}

void Segment::for_each_doc(
    bool reverse,
    const std::function<bool(std::uint64_t, std::string_view)>& visit) const {
  if (reverse) {
    for (std::size_t i = doc_texts_.size(); i-- > 0;) {
      if (!visit(info_.base_seq + i, doc_texts_[i])) return;
    }
  } else {
    for (std::size_t i = 0; i < doc_texts_.size(); ++i) {
      if (!visit(info_.base_seq + i, doc_texts_[i])) return;
    }
  }
}

}  // namespace p4s::store
