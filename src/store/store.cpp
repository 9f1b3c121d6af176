#include "store/store.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

namespace p4s::store {

namespace fs = std::filesystem;

namespace {

constexpr const char* kManifestFile = "MANIFEST.json";
constexpr const char* kWalFile = "wal.log";
constexpr const char* kSegmentDir = "seg";

/// Memtable chunk capacity. Appends republish only the last chunk (a
/// vector of shared_ptrs this long), so the per-append copy cost is
/// bounded regardless of memtable size.
constexpr std::size_t kMemChunkDocs = 64;

std::function<void(std::string_view)> g_failpoint_hook;

void failpoint(std::string_view name) {
  if (g_failpoint_hook) g_failpoint_hook(name);
}

/// Index names appear in segment file names; keep them filesystem-safe.
/// Uniqueness comes from the numeric segment id, not the sanitized name.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out;
}

util::Json summary_to_json(const ColumnSummary& s) {
  util::Json j = util::Json::object();
  j["count"] = s.count;
  j["min"] = s.min;
  j["max"] = s.max;
  j["sum"] = s.sum;
  return j;
}

// ---- MANIFEST.json ------------------------------------------------------
//
// decode_manifest is the one reader of the manifest: opening a store and
// Store::verify both go through it, so they agree on what is valid. Keys
// it does not read are ignored, so manifests that still carry retired
// ones (a `rollups` section, a segment's `min_ts`) open and verify.

struct ManifestSegment {
  std::string file;  // "seg/<name>", relative to the store directory
  SegmentInfo info;
  std::map<std::string, ColumnSummary> summaries;
};

struct ManifestIndex {
  std::uint64_t sealed_docs = 0;
  std::vector<ManifestSegment> segments;
};

struct Manifest {
  std::uint64_t next_segment_id = 0;
  std::map<std::string, ManifestIndex> indices;
};

/// A segment file lives directly under seg/: the store unlinks retired
/// segments by this name, so it must not reach outside the directory.
bool in_segment_dir(const std::string& file) {
  const std::string prefix = std::string(kSegmentDir) + "/";
  if (file.compare(0, prefix.size(), prefix) != 0) return false;
  const std::string name = file.substr(prefix.size());
  return !name.empty() && name != "." && name != ".." &&
         name.find_first_of(std::string_view("/\0", 2)) == std::string::npos;
}

/// The id in a name the store generates ("seg/<index>-<id>.seg"), or
/// nullopt for a name it never generates.
std::optional<std::uint64_t> generated_segment_id(const std::string& file) {
  const std::string_view suffix = ".seg";
  const auto dash = file.rfind('-');
  if (dash == std::string::npos || !file.ends_with(suffix)) {
    return std::nullopt;
  }
  const char* first = file.data() + dash + 1;
  const char* last = file.data() + file.size() - suffix.size();
  std::uint64_t id = 0;
  const auto [end, ec] = std::from_chars(first, last, id);
  if (first >= last || ec != std::errc() || end != last) return std::nullopt;
  return id;
}

/// Decode and check MANIFEST.json; `where` (its path) leads every
/// message. Throws StoreError naming the offending key.
Manifest decode_manifest(const std::string& text, const std::string& where) {
  std::string path;  // the value being read, named by any error
  const auto fail = [&](const std::string& what) {
    throw StoreError(where + ": '" + path + "' " + what);
  };
  // Member `key` of the object at `parent`; JsonError if it is absent.
  const auto member = [&](const util::Json& parent_value,
                          const std::string& parent,
                          const std::string& key) -> const util::Json& {
    path = parent.empty() ? key : parent + "." + key;
    return parent_value.at(key);
  };
  const auto integer = [&](const util::Json& v) {
    if (!v.is_int()) fail("must be an integer");
    return v.as_int();
  };
  // Counts, sequence numbers and segment ids.
  const auto count = [&](const util::Json& v) {
    const std::int64_t n = integer(v);
    if (n < 0) fail("must be >= 0");
    return static_cast<std::uint64_t>(n);
  };

  Manifest manifest;
  try {
    const util::Json doc = util::Json::parse(text);
    if (integer(member(doc, "", "version")) != 1) fail("must be 1");
    manifest.next_segment_id = count(member(doc, "", "next_segment_id"));
    for (const auto& [name, entry] : member(doc, "", "indices").as_object()) {
      const std::string at = "indices." + name;
      ManifestIndex& index = manifest.indices[name];
      index.sealed_docs = count(member(entry, at, "sealed_docs"));
      const auto& segments = member(entry, at, "segments").as_array();
      // Segments cover [0, sealed_docs) in order, without gaps.
      std::uint64_t next_seq = 0;
      for (std::size_t i = 0; i < segments.size(); ++i) {
        const util::Json& listed = segments[i];
        const std::string seg_at =
            at + ".segments[" + std::to_string(i) + "]";
        ManifestSegment seg;
        seg.file = member(listed, seg_at, "file").as_string();
        if (!in_segment_dir(seg.file)) fail("must name a file in seg/");
        // The next seal or compaction would write over it.
        const auto id = generated_segment_id(seg.file);
        if (id.has_value() && *id >= manifest.next_segment_id) {
          fail("has an id at or past next_segment_id");
        }
        seg.info.index = name;
        seg.info.docs = count(member(listed, seg_at, "docs"));
        seg.info.base_seq = count(member(listed, seg_at, "base_seq"));
        if (seg.info.base_seq != next_seq) {
          fail("must be " + std::to_string(next_seq) +
               " to continue the sequence");
        }
        // Both terms are below 2^63, so the sum cannot wrap.
        next_seq = seg.info.base_seq + seg.info.docs;
        for (const auto& [field, summary] :
             member(listed, seg_at, "columns").as_object()) {
          const std::string col_at = seg_at + ".columns." + field;
          ColumnSummary& s = seg.summaries[field];
          s.count = count(member(summary, col_at, "count"));
          s.min = member(summary, col_at, "min").as_double();
          s.max = member(summary, col_at, "max").as_double();
          s.sum = member(summary, col_at, "sum").as_double();
        }
        index.segments.push_back(std::move(seg));
      }
      path = at + ".sealed_docs";
      if (next_seq != index.sealed_docs) {
        fail("must equal the segments' " + std::to_string(next_seq) +
             " docs");
      }
    }
  } catch (const util::JsonError& e) {
    if (path.empty()) throw StoreError(where + ": " + e.what());
    fail(std::string("is malformed: ") + e.what());
  }
  return manifest;
}

/// The manifest of the store at `dir`; empty when there is no manifest
/// file (a fresh store). An empty file is refused like any other bad
/// manifest: read as a fresh store, a read-write open would sweep every
/// segment as an orphan.
Manifest read_manifest(const std::string& dir) {
  const std::string path = dir + "/" + kManifestFile;
  std::error_code ec;
  if (!fs::exists(path, ec)) return {};
  std::ifstream in(path, std::ios::binary);
  if (!in) throw StoreError("store: cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return decode_manifest(text.str(), path);
}

}  // namespace

void set_store_failpoint_hook(std::function<void(std::string_view)> hook) {
  g_failpoint_hook = std::move(hook);
}

Store::Store(std::string dir, StoreConfig config, OpenMode mode)
    : dir_(std::move(dir)),
      config_(std::move(config)),
      read_only_(mode == OpenMode::read_only) {
  ctx_ = std::make_shared<detail::ReadContext>();
  ctx_->dir = dir_;
  if (!read_only_) {
    fs::create_directories(dir_ + "/" + kSegmentDir);
  }

  BuildMap build;
  load_manifest(build);

  // Replay the WAL tail: everything not yet counted as sealed goes back
  // into the memtables, in append order.
  WalReplay replay = replay_wal(dir_ + "/" + kWalFile);
  wal_batches_replayed_ = replay.batches;
  wal_tail_bytes_dropped_ = replay.tail_bytes_dropped;
  std::map<std::string, std::vector<std::shared_ptr<const util::Json>>>
      replayed;
  for (auto& record : replay.records) {
    auto& state = build[record.index];
    if (!state) state = std::make_shared<detail::IndexView>();
    if (record.seq < state->sealed_docs + replayed[record.index].size()) {
      ++wal_records_skipped_sealed_;
      continue;
    }
    try {
      replayed[record.index].push_back(
          std::make_shared<const util::Json>(util::Json::parse(record.doc)));
    } catch (const util::JsonError& e) {
      throw StoreError("store: WAL document failed to parse: " +
                       std::string(e.what()));
    }
  }
  for (auto& [name, docs] : replayed) {
    auto& state = build[name];
    for (std::size_t i = 0; i < docs.size(); i += kMemChunkDocs) {
      const std::size_t end = std::min(i + kMemChunkDocs, docs.size());
      auto chunk = std::make_shared<detail::MemChunk>();
      chunk->docs.assign(docs.begin() + static_cast<std::ptrdiff_t>(i),
                         docs.begin() + static_cast<std::ptrdiff_t>(end));
      state->chunks.push_back(std::move(chunk));
    }
    state->memtable_count += docs.size();
  }

  auto view = std::make_shared<detail::StoreView>();
  for (auto& [name, state] : build) {
    view->indices[name] = std::move(state);
  }
  view_ = std::move(view);

  if (!read_only_) {
    sweep_orphan_segments(*view_);
    wal_ = std::make_unique<WalWriter>(dir_ + "/" + kWalFile);
  }
}

void Store::require_writable(const char* op) const {
  if (read_only_) {
    throw StoreError(std::string("store: ") + op + " on a read-only store");
  }
}

std::shared_ptr<const detail::StoreView> Store::current_view() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return view_;
}

Store::IndexViewPtr Store::find_index(const std::string& index) const {
  const auto view = current_view();
  const auto it = view->indices.find(index);
  return it == view->indices.end() ? nullptr : it->second;
}

void Store::publish_view(std::shared_ptr<detail::StoreView> next) {
  std::shared_ptr<const detail::StoreView> old;
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    old = std::move(view_);
    view_ = std::move(next);
  }
  // `old` (and with it any retired segment handles the new view dropped)
  // is released outside the publish lock.
}

void Store::publish_index(const std::string& index, IndexViewPtr next) {
  const auto cur = current_view();
  auto next_view = std::make_shared<detail::StoreView>();
  next_view->generation = cur->generation + 1;
  next_view->indices = cur->indices;
  next_view->indices[index] = std::move(next);
  publish_view(std::move(next_view));
}

Snapshot Store::snapshot() const {
  ctx_->counters.snapshots.fetch_add(1, std::memory_order_relaxed);
  return Snapshot(current_view(), ctx_);
}

std::uint64_t Store::append(const std::string& index, const util::Json& doc) {
  require_writable("append");
  std::lock_guard<std::mutex> lock(writer_mu_);
  const auto old = find_index(index);
  auto next = old ? std::make_shared<detail::IndexView>(*old)
                  : std::make_shared<detail::IndexView>();
  const std::uint64_t seq = next->sealed_docs + next->memtable_count;
  wal_->append({index, seq, doc.dump()});
  auto doc_ptr = std::make_shared<const util::Json>(doc);
  if (!next->chunks.empty() &&
      next->chunks.back()->docs.size() < kMemChunkDocs) {
    // Chunks are immutable once published: replace the tail chunk with a
    // copy (shared doc pointers, not documents) carrying the new doc.
    auto chunk = std::make_shared<detail::MemChunk>(*next->chunks.back());
    chunk->docs.push_back(std::move(doc_ptr));
    next->chunks.back() = std::move(chunk);
  } else {
    auto chunk = std::make_shared<detail::MemChunk>();
    chunk->docs.reserve(kMemChunkDocs);
    chunk->docs.push_back(std::move(doc_ptr));
    next->chunks.push_back(std::move(chunk));
  }
  ++next->memtable_count;
  publish_index(index, std::move(next));
  if (config_.wal_batch_docs > 0 &&
      wal_->pending_docs() >= config_.wal_batch_docs) {
    wal_->commit();
  }
  return seq;
}

void Store::flush() {
  require_writable("flush");
  std::lock_guard<std::mutex> lock(writer_mu_);
  wal_->commit();
}

std::string Store::segment_path(const std::string& index) {
  return std::string(kSegmentDir) + "/" + sanitize(index) + "-" +
         std::to_string(next_segment_id_++) + ".seg";
}

void Store::seal_locked(const std::string& index) {
  const auto old = find_index(index);
  if (!old || old->memtable_count == 0) return;
  failpoint("seal.begin");

  std::vector<const util::Json*> docs;
  docs.reserve(old->memtable_count);
  for (const auto& chunk : old->chunks) {
    for (const auto& doc : chunk->docs) docs.push_back(doc.get());
  }

  const std::string file = segment_path(index);
  auto built = write_segment(dir_ + "/" + file, index, old->sealed_docs, docs);
  failpoint("seal.segment_written");
  auto handle = std::make_shared<detail::SegmentHandle>(
      ctx_, file, built.info, std::move(built.summaries));

  auto next = std::make_shared<detail::IndexView>(*old);
  next->sealed_docs += next->memtable_count;
  next->memtable_count = 0;
  next->chunks.clear();
  next->segments.push_back(std::move(handle));

  // Segment first, then manifest, then publish, then the WAL rotation: a
  // crash between any two steps leaves a state the replay path
  // reconstructs (orphan segment file, or sealed docs still present in
  // the WAL — skipped by sequence number).
  const auto cur = current_view();
  auto next_view = std::make_shared<detail::StoreView>();
  next_view->generation = cur->generation + 1;
  next_view->indices = cur->indices;
  next_view->indices[index] = std::move(next);
  write_manifest(*next_view);
  failpoint("seal.manifest_written");
  publish_view(std::move(next_view));
  ctx_->counters.seals.fetch_add(1, std::memory_order_relaxed);
  rotate_wal(*current_view());
  failpoint("seal.wal_rotated");
}

void Store::seal(const std::string& index) {
  require_writable("seal");
  std::lock_guard<std::mutex> lock(writer_mu_);
  seal_locked(index);
}

void Store::seal_all() {
  require_writable("seal_all");
  std::lock_guard<std::mutex> lock(writer_mu_);
  // Pin the view: seal_locked publishes a successor each iteration, and
  // iterating the shared map through an unpinned temporary would leave
  // the loop walking freed nodes once the old view's last ref drops.
  const auto view = current_view();
  for (const auto& name : view->indices) {
    seal_locked(name.first);
  }
}

void Store::merge_segments_locked(const std::string& index, std::size_t first,
                                  std::size_t count) {
  const auto old = find_index(index);
  if (!old || count < 2 || first + count > old->segments.size()) return;
  failpoint("compact.begin");

  // Parse every document of the merged range up front; the pointer span
  // for write_segment is taken only after `parsed` stops growing.
  std::vector<util::Json> parsed;
  for (std::size_t i = first; i < first + count; ++i) {
    const auto seg = old->segments[i]->load();
    seg->for_each_doc(false, [&](std::uint64_t, std::string_view text) {
      parsed.push_back(util::Json::parse(text));
      return true;
    });
  }
  std::vector<const util::Json*> docs;
  docs.reserve(parsed.size());
  for (const auto& doc : parsed) docs.push_back(&doc);

  const std::uint64_t base_seq = old->segments[first]->info.base_seq;
  const std::string file = segment_path(index);
  auto built = write_segment(dir_ + "/" + file, index, base_seq, docs);
  failpoint("compact.segment_written");
  auto merged = std::make_shared<detail::SegmentHandle>(
      ctx_, file, built.info, std::move(built.summaries));

  auto next = std::make_shared<detail::IndexView>(*old);
  std::vector<std::shared_ptr<detail::SegmentHandle>> retired(
      next->segments.begin() + static_cast<std::ptrdiff_t>(first),
      next->segments.begin() + static_cast<std::ptrdiff_t>(first + count));
  next->segments.erase(
      next->segments.begin() + static_cast<std::ptrdiff_t>(first),
      next->segments.begin() + static_cast<std::ptrdiff_t>(first + count));
  next->segments.insert(
      next->segments.begin() + static_cast<std::ptrdiff_t>(first),
      std::move(merged));

  const auto cur = current_view();
  auto next_view = std::make_shared<detail::StoreView>();
  next_view->generation = cur->generation + 1;
  next_view->indices = cur->indices;
  next_view->indices[index] = std::move(next);
  // Manifest first (crash here = old files orphaned but still listed
  // nowhere dangerous), then retire, then publish. Deletion itself is
  // deferred to the last reference: snapshots pinning the old view keep
  // the files alive until they release it.
  write_manifest(*next_view);
  failpoint("compact.manifest_written");
  for (const auto& handle : retired) {
    handle->retired.store(true, std::memory_order_release);
  }
  ctx_->counters.segments_retired.fetch_add(retired.size(),
                                            std::memory_order_relaxed);
  ctx_->counters.compactions.fetch_add(1, std::memory_order_relaxed);
  publish_view(std::move(next_view));
  retired.clear();  // last writer-side refs; unpinned files unlink here
  failpoint("compact.retired");
}

void Store::compact_locked(const std::string& index) {
  const auto state = find_index(index);
  if (!state || state->segments.size() < 2) return;
  merge_segments_locked(index, 0, state->segments.size());
}

void Store::compact(const std::string& index) {
  require_writable("compact");
  std::lock_guard<std::mutex> lock(writer_mu_);
  compact_locked(index);
}

void Store::tiered_compact_locked(const std::string& index) {
  const std::size_t fanin = config_.compact_fanin;
  if (fanin == 0) return;
  if (fanin == 1) {
    // Degenerate fanin: every maintenance pass merges everything.
    compact_locked(index);
    return;
  }
  const auto seal_min = std::max<std::uint64_t>(1, config_.seal_min_docs);
  const auto tier_of = [&](const detail::SegmentHandle& handle) {
    std::uint64_t size = std::max<std::uint64_t>(1, handle.info.docs / seal_min);
    std::size_t tier = 0;
    while (size >= fanin) {
      size /= fanin;
      ++tier;
    }
    return tier;
  };
  // Merge the leftmost run of `fanin` adjacent same-tier segments, then
  // rescan: a merge can promote its output a tier and cascade.
  for (;;) {
    const auto state = find_index(index);
    if (!state || state->segments.size() < fanin) return;
    const auto& segments = state->segments;
    std::size_t run_start = 0;
    std::size_t run_len = 1;
    bool merged = false;
    for (std::size_t i = 1; i <= segments.size(); ++i) {
      if (i < segments.size() &&
          tier_of(*segments[i]) == tier_of(*segments[run_start])) {
        ++run_len;
        if (run_len < fanin) continue;
        merge_segments_locked(index, run_start, fanin);
        merged = true;
        break;
      }
      run_start = i;
      run_len = 1;
    }
    if (!merged) return;
  }
}

void Store::maintain() {
  require_writable("maintain");
  std::lock_guard<std::mutex> lock(writer_mu_);
  wal_->commit();
  std::vector<std::string> names;
  const auto view = current_view();  // pin while iterating
  for (const auto& [name, state] : view->indices) {
    (void)state;
    names.push_back(name);
  }
  for (const auto& name : names) {
    const auto state = find_index(name);
    if (state && config_.seal_min_docs > 0 &&
        state->memtable_count >= config_.seal_min_docs) {
      seal_locked(name);
    }
  }
  for (const auto& name : names) {
    tiered_compact_locked(name);
  }
}

StoreStats Store::stats() const {
  StoreStats out;
  out.wal_batches_replayed = wal_batches_replayed_;
  out.wal_tail_bytes_dropped = wal_tail_bytes_dropped_;
  out.wal_records_skipped_sealed = wal_records_skipped_sealed_;
  out.orphan_segments_removed = orphan_segments_removed_;
  const auto& c = ctx_->counters;
  out.seals = c.seals.load(std::memory_order_relaxed);
  out.compactions = c.compactions.load(std::memory_order_relaxed);
  out.scans = c.scans.load(std::memory_order_relaxed);
  out.segments_considered =
      c.segments_considered.load(std::memory_order_relaxed);
  out.segments_scanned = c.segments_scanned.load(std::memory_order_relaxed);
  out.segments_pruned_range =
      c.segments_pruned_range.load(std::memory_order_relaxed);
  out.segments_pruned_terms =
      c.segments_pruned_terms.load(std::memory_order_relaxed);
  out.segments_pruned_postings =
      c.segments_pruned_postings.load(std::memory_order_relaxed);
  out.postings_rows_seeked =
      c.postings_rows_seeked.load(std::memory_order_relaxed);
  out.snapshots = c.snapshots.load(std::memory_order_relaxed);
  out.segments_retired = c.segments_retired.load(std::memory_order_relaxed);
  out.segments_gc_deleted =
      c.segments_gc_deleted.load(std::memory_order_relaxed);
  out.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
  out.cache_misses = c.cache_misses.load(std::memory_order_relaxed);
  return out;
}

void Store::load_manifest(BuildMap& indices) {
  Manifest manifest = read_manifest(dir_);
  next_segment_id_ = manifest.next_segment_id;
  for (auto& [name, entry] : manifest.indices) {
    auto state = std::make_shared<detail::IndexView>();
    state->sealed_docs = entry.sealed_docs;
    for (auto& seg : entry.segments) {
      state->segments.push_back(std::make_shared<detail::SegmentHandle>(
          ctx_, std::move(seg.file), std::move(seg.info),
          std::move(seg.summaries)));
    }
    indices[name] = std::move(state);
  }
}

void Store::write_manifest(const detail::StoreView& view) const {
  util::Json doc = util::Json::object();
  doc["version"] = 1;
  doc["next_segment_id"] = next_segment_id_;
  util::Json indices = util::Json::object();
  for (const auto& [name, state] : view.indices) {
    util::Json entry = util::Json::object();
    entry["sealed_docs"] = state->sealed_docs;
    util::JsonArray segments;
    for (const auto& handle : state->segments) {
      util::Json seg = util::Json::object();
      seg["file"] = handle->file;
      seg["docs"] = handle->info.docs;
      seg["base_seq"] = handle->info.base_seq;
      util::Json columns = util::Json::object();
      for (const auto& [field, summary] : handle->summaries) {
        columns[field] = summary_to_json(summary);
      }
      seg["columns"] = std::move(columns);
      segments.push_back(std::move(seg));
    }
    entry["segments"] = util::Json(std::move(segments));
    indices[name] = std::move(entry);
  }
  doc["indices"] = std::move(indices);

  const std::string tmp = dir_ + "/MANIFEST.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw StoreError("store: cannot write " + tmp);
    out << doc.dump(2) << "\n";
    out.flush();
    if (!out) throw StoreError("store: write failed on " + tmp);
  }
  failpoint("manifest.tmp_written");
  fs::rename(tmp, dir_ + "/" + kManifestFile);
}

void Store::sweep_orphan_segments(const detail::StoreView& view) {
  std::set<std::string> keep;
  for (const auto& [name, state] : view.indices) {
    (void)name;
    for (const auto& handle : state->segments) keep.insert(handle->file);
  }
  std::error_code ec;
  fs::directory_iterator it(dir_ + "/" + kSegmentDir, ec);
  if (ec) return;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        std::string(kSegmentDir) + "/" + entry.path().filename().string();
    if (keep.count(rel) != 0) continue;
    fs::remove(entry.path(), ec);
    if (!ec) ++orphan_segments_removed_;
  }
}

void Store::rotate_wal(const detail::StoreView& view) {
  // Rewrite the WAL down to the documents still unsealed (other indices'
  // memtables), then swap it in atomically. Crashing anywhere here is
  // safe: the old WAL's already-sealed records replay as skipped.
  wal_.reset();
  const std::string tmp = dir_ + "/wal.tmp";
  std::error_code ec;
  fs::remove(tmp, ec);
  {
    WalWriter writer(tmp);
    for (const auto& [name, state] : view.indices) {
      std::uint64_t seq = state->sealed_docs;
      for (const auto& chunk : state->chunks) {
        for (const auto& doc : chunk->docs) {
          writer.append({name, seq++, doc->dump()});
        }
      }
    }
    writer.commit();
  }
  failpoint("wal_rotate.tmp_written");
  fs::rename(tmp, dir_ + "/" + kWalFile);
  failpoint("wal_rotate.renamed");
  wal_ = std::make_unique<WalWriter>(dir_ + "/" + kWalFile);
}

Store::VerifyResult Store::verify(const std::string& dir) {
  VerifyResult result;
  const auto complain = [&](const std::string& what) {
    result.ok = false;
    result.errors.push_back(what);
  };

  Manifest manifest;
  try {
    manifest = read_manifest(dir);
  } catch (const StoreError& e) {
    complain(e.what());
    return result;
  }
  // The manifest is consistent in itself; check it against the files.
  for (const auto& [name, entry] : manifest.indices) {
    for (const auto& listed : entry.segments) {
      ++result.segments;
      const std::string& file = listed.file;
      try {
        const Segment seg = Segment::load(dir + "/" + file);
        if (seg.info().docs != listed.info.docs ||
            seg.info().base_seq != listed.info.base_seq ||
            seg.info().index != name) {
          complain(name + ": segment " + file +
                   " disagrees with the manifest");
        }
        seg.for_each_doc(false, [&](std::uint64_t, std::string_view text) {
          try {
            (void)util::Json::parse(text);
          } catch (const util::JsonError&) {
            complain(name + ": segment " + file +
                     " holds an unparseable document");
            return false;
          }
          return true;
        });
        result.sealed_docs += seg.info().docs;
        result.index_docs[name] += seg.info().docs;
      } catch (const StoreError& e) {
        complain(e.what());
      }
    }
  }

  const WalReplay replay = replay_wal(dir + "/" + kWalFile);
  result.wal_docs = replay.records.size();
  result.wal_tail_bytes_dropped = replay.tail_bytes_dropped;
  for (const auto& record : replay.records) {
    try {
      (void)util::Json::parse(record.doc);
    } catch (const util::JsonError&) {
      complain("wal: unparseable document for index " + record.index);
      break;
    }
  }
  return result;
}

}  // namespace p4s::store
