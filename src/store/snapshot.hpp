// Snapshot-isolated reads over the store.
//
// The store publishes its state as an immutable, refcounted StoreView:
// per index, the sealed-segment list plus the memtable as a list of
// immutable chunks. Every mutation (append, seal, compact) builds a new
// view sharing everything untouched and atomically swaps the current
// pointer; a Snapshot pins one view by holding the shared_ptr. That
// gives readers on any thread a frozen, consistent store — a fixed doc
// count, a fixed segment list, fixed memtable contents — no matter how
// many documents the writer ingests, seals, or compacts meanwhile.
//
// Segment GC rule: compaction never deletes a sealed file directly. It
// marks the superseded handles retired and drops its references; the
// file is unlinked by the last SegmentHandle reference to die, which is
// the last Snapshot still reading it. A pinned segment is therefore
// never deleted underneath a reader (the concurrency stress test holds
// snapshots across thousands of compactions to prove it).
//
// Threading contract: one writer (the Store's mutating methods serialize
// on an internal mutex), any number of concurrent Snapshot readers.
// Snapshots must not outlive their Store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "store/segment.hpp"
#include "util/json.hpp"

namespace p4s::store {

struct ScanOptions {
  /// Range filter used for segment pruning (and nothing else — the
  /// caller re-checks every visited document). Pruning applies when the
  /// field is the time field or a hot column.
  std::string range_field;
  std::optional<double> range_min;
  std::optional<double> range_max;
  /// Term keys (term_key()) that matching documents must all contain.
  /// Segments whose bloom filter rules one out are skipped; when a
  /// key's field carries posting lists, the scan seeks straight to the
  /// matching rows instead of parsing the whole segment.
  std::vector<std::string> term_keys;
  bool newest_first = false;
};

using ColumnAggregate = ColumnSummary;

namespace detail {

/// Cross-thread counters shared by the store, its snapshots, and its
/// segment handles (handles may die on reader threads after the writer
/// retired them, so the counters are refcounted alongside them).
struct StoreCounters {
  // Write path.
  std::atomic<std::uint64_t> seals{0};
  std::atomic<std::uint64_t> compactions{0};
  // Scan-side pruning.
  std::atomic<std::uint64_t> scans{0};
  std::atomic<std::uint64_t> segments_considered{0};
  std::atomic<std::uint64_t> segments_scanned{0};
  std::atomic<std::uint64_t> segments_pruned_range{0};
  std::atomic<std::uint64_t> segments_pruned_terms{0};
  std::atomic<std::uint64_t> segments_pruned_postings{0};
  std::atomic<std::uint64_t> postings_rows_seeked{0};
  // Serving. A miss is a segment's first load, a hit any later one.
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> segments_retired{0};
  std::atomic<std::uint64_t> segments_gc_deleted{0};
};

/// Everything the read path needs, shared (refcounted) between the
/// Store, its snapshots, and its segment handles: the directory and the
/// counters.
struct ReadContext {
  std::string dir;
  StoreCounters counters;
};

/// An immutable slice of one index's memtable. Documents are shared
/// pointers so republishing a chunk on append copies pointers, not JSON.
struct MemChunk {
  std::vector<std::shared_ptr<const util::Json>> docs;
};

/// One sealed segment: manifest metadata resident, the decoded blocks
/// loaded on first use and kept until the handle dies. There is one
/// handle per segment file, refcounted — views and snapshots share it;
/// when `retired` is set (compaction replaced it), the last reference to
/// die frees the decoded segment and unlinks the file.
struct SegmentHandle {
  SegmentHandle(std::shared_ptr<ReadContext> context, std::string file_name,
                SegmentInfo segment_info,
                std::map<std::string, ColumnSummary> column_summaries)
      : ctx(std::move(context)),
        file(std::move(file_name)),
        info(std::move(segment_info)),
        summaries(std::move(column_summaries)) {}
  ~SegmentHandle();

  SegmentHandle(const SegmentHandle&) = delete;
  SegmentHandle& operator=(const SegmentHandle&) = delete;

  /// The decoded segment. The first call reads the file and checks it
  /// against the manifest (concurrent first calls decode once); a load
  /// that throws keeps nothing, and every later call returns the kept
  /// segment.
  std::shared_ptr<const Segment> load() const;

  std::shared_ptr<ReadContext> ctx;
  std::string file;  // relative to ctx->dir
  SegmentInfo info;
  std::map<std::string, ColumnSummary> summaries;
  std::atomic<bool> retired{false};

 private:
  mutable std::mutex load_mu_;
  mutable std::shared_ptr<const Segment> loaded_;
};

struct IndexView {
  std::uint64_t sealed_docs = 0;  // == next memtable base sequence
  std::uint64_t memtable_count = 0;
  std::vector<std::shared_ptr<SegmentHandle>> segments;
  std::vector<std::shared_ptr<const MemChunk>> chunks;
};

struct StoreView {
  std::uint64_t generation = 0;
  std::map<std::string, std::shared_ptr<const IndexView>> indices;
};

}  // namespace detail

/// A pinned, immutable view of the store. Cheap to take (two shared_ptr
/// copies), safe to query from any thread, and guaranteed stable: the
/// doc counts, segment list, and every document visible at creation stay
/// exactly as they were until the snapshot is released.
class Snapshot {
 public:
  /// Monotonic view generation (bumps on every store mutation).
  std::uint64_t generation() const { return view_->generation; }

  std::uint64_t doc_count(const std::string& index) const;
  std::uint64_t total_docs() const;
  std::vector<std::string> indices() const;
  std::uint64_t segment_count(const std::string& index) const;
  std::uint64_t memtable_docs(const std::string& index) const;

  /// Visit documents in sequence order (or reversed); the visitor
  /// returns false to stop. Pruning is only ever an over-approximation
  /// of the options: every document that could match them is visited.
  void scan(const std::string& index, const ScanOptions& options,
            const std::function<bool(const util::Json&)>& visit) const;

  /// Columnar aggregation fast path: aggregate `field` over documents
  /// whose `range_field` (when set) lies in [min, max]. Returns nullopt
  /// when the fields aren't columnar — the caller falls back to a scan.
  /// Sealed segments are aggregated from column summaries (full overlap)
  /// or decoded columns (partial overlap) without parsing any document
  /// JSON; memtable documents are walked directly.
  std::optional<ColumnAggregate> aggregate_column(
      const std::string& index, const std::string& field,
      const std::string& range_field, std::optional<double> range_min,
      std::optional<double> range_max) const;

 private:
  friend class Store;
  Snapshot(std::shared_ptr<const detail::StoreView> view,
           std::shared_ptr<detail::ReadContext> ctx)
      : view_(std::move(view)), ctx_(std::move(ctx)) {}

  const detail::IndexView* find_index(const std::string& index) const;

  std::shared_ptr<const detail::StoreView> view_;
  std::shared_ptr<detail::ReadContext> ctx_;
};

}  // namespace p4s::store
