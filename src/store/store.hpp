// p4s_store — a crash-safe, segmented time-series document store.
//
// One Store owns a directory:
//
//   <dir>/MANIFEST.json   — authoritative segment list and sealed-doc
//                           counts per index, with each segment's column
//                           summaries; replaced atomically (tmp + rename)
//   <dir>/wal.log         — write-ahead log of not-yet-sealed documents
//   <dir>/seg/<index>-<id>.seg
//                         — immutable sealed segments (segment.hpp)
//
// Write path: append() buffers the document in the index's memtable and
// the WAL's pending batch; every `wal_batch_docs` appends (or an explicit
// flush()) commits a length+CRC framed batch. seal() turns a memtable
// into a sealed segment, rewrites the manifest, and rotates the WAL down
// to what is still unsealed. maintain() seals memtables at/above
// seal_min_docs and runs tiered compaction: segments are bucketed by size
// tier (floor(log_fanin(docs / seal_min_docs))) and any run of
// `compact_fanin` adjacent same-tier segments merges into one, which
// bounds the segment count logarithmically in total docs without
// rewriting the whole index on every pass.
//
// Recovery invariant: reopening a directory yields exactly the sealed
// segments named by the manifest plus the longest committed-batch prefix
// of the WAL, minus documents the manifest already counts as sealed
// (sequence numbers make the WAL-vs-segment overlap after a mid-seal
// crash harmless). No partial document is ever visible. Segment files
// not named by the manifest (a crash between segment write and manifest
// rename, or between manifest rename and GC) are swept at open.
//
// Read path and concurrency: the store publishes its state as immutable
// refcounted views (snapshot.hpp). snapshot() pins the current view in
// O(1); any number of reader threads then scan/aggregate a frozen,
// consistent store while the single writer keeps appending, sealing, and
// compacting. Compaction retires superseded segments instead of deleting
// them — the file is unlinked only when the last snapshot referencing it
// is released. Each segment is decoded on its first read and kept by its
// handle until the handle dies; stats() counts those loads (cache misses
// and hits) and scan pruning so tests and benches can assert both
// actually happen. All reads go through a Snapshot; downsampling is one
// time-ranged aggregation per bucket (Snapshot::aggregate_column).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "store/segment.hpp"
#include "store/snapshot.hpp"
#include "store/wal.hpp"
#include "util/json.hpp"

namespace p4s::store {

/// Write-path tuning. The columnar schema is fixed (kTimeField,
/// kHotFields in segment.hpp).
struct StoreConfig {
  /// Commit the WAL batch automatically every this many appends.
  std::size_t wal_batch_docs = 64;
  /// maintain() seals an index's memtable once it holds at least this
  /// many documents.
  std::size_t seal_min_docs = 256;
  /// maintain() merges any run of this many adjacent same-tier segments
  /// (0 disables compaction).
  std::size_t compact_fanin = 8;
};

struct StoreStats {
  std::uint64_t wal_batches_replayed = 0;
  std::uint64_t wal_tail_bytes_dropped = 0;
  std::uint64_t wal_records_skipped_sealed = 0;
  std::uint64_t orphan_segments_removed = 0;
  std::uint64_t seals = 0;
  std::uint64_t compactions = 0;
  // Scan-side pruning counters (cumulative over the Store's lifetime).
  std::uint64_t scans = 0;
  std::uint64_t segments_considered = 0;
  std::uint64_t segments_scanned = 0;
  std::uint64_t segments_pruned_range = 0;
  std::uint64_t segments_pruned_terms = 0;
  std::uint64_t segments_pruned_postings = 0;
  std::uint64_t postings_rows_seeked = 0;
  // Serving-side counters.
  std::uint64_t snapshots = 0;
  /// Segment loads: a miss decodes the file, a hit reuses the decoded
  /// segment its handle kept.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t segments_retired = 0;
  std::uint64_t segments_gc_deleted = 0;
  /// Retired segments still pinned by live snapshots.
  std::uint64_t gc_pending() const {
    return segments_retired - segments_gc_deleted;
  }
};

enum class OpenMode {
  read_write,
  /// Open for reads only: no directory/WAL creation side effects, and
  /// every mutating method throws. An empty or missing directory reads
  /// as an empty store. Used by CLI read commands (info/verify/dump,
  /// serve-stats) so inspecting a store never alters it.
  read_only,
};

/// Crash-injection hook for tests: called with a named boundary
/// ("seal.segment_written", "compact.manifest_written", ...) at each
/// point where a crash would leave a distinct on-disk state. Production
/// builds never set it. Not thread-safe — set it before touching the
/// store and clear it (nullptr) after.
void set_store_failpoint_hook(std::function<void(std::string_view)> hook);

class Store {
 public:
  /// Open (or create) the store at `dir`, replaying any WAL tail.
  explicit Store(std::string dir, StoreConfig config = {},
                 OpenMode mode = OpenMode::read_write);

  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  const std::string& dir() const { return dir_; }
  const StoreConfig& config() const { return config_; }
  bool read_only() const { return read_only_; }

  // ---- write path (single writer thread) ------------------------------

  /// Append one document; returns its index-local sequence number. The
  /// document becomes durable at the next WAL batch commit (automatic
  /// every wal_batch_docs appends, or via flush()) and visible to new
  /// snapshots immediately.
  std::uint64_t append(const std::string& index, const util::Json& doc);

  /// Commit the pending WAL batch.
  void flush();

  /// Seal `index`'s memtable into an immutable segment (no-op when the
  /// memtable is empty). Rewrites the manifest and rotates the WAL.
  void seal(const std::string& index);
  void seal_all();

  /// Merge all of `index`'s sealed segments into one.
  void compact(const std::string& index);

  /// One background-maintenance step (drive it from the simulation
  /// clock): flush the WAL, seal memtables at/above seal_min_docs, and
  /// run tiered compaction.
  void maintain();

  // ---- read path (any thread) -----------------------------------------

  /// Pin the current view. O(1); safe from any thread. Every query —
  /// counts, scans, aggregations — runs on a snapshot.
  Snapshot snapshot() const;

  /// Point-in-time statistics snapshot; safe from any thread.
  StoreStats stats() const;

  // ---- offline verification (CLI `verify`, CI artifact check) ---------

  struct VerifyResult {
    bool ok = true;
    std::vector<std::string> errors;
    std::uint64_t segments = 0;
    std::uint64_t sealed_docs = 0;
    /// Sealed docs per index, counted in the segment files.
    std::map<std::string, std::uint64_t> index_docs;
    std::uint64_t wal_docs = 0;
    std::uint64_t wal_tail_bytes_dropped = 0;
  };

  /// Structurally verify a store directory without opening it as a live
  /// Store: the manifest decodes as it does at open, every segment loads
  /// (CRC), its doc count, base sequence and index match the manifest,
  /// every document parses as JSON, WAL replays. An empty or missing
  /// directory verifies clean (zero of everything).
  static VerifyResult verify(const std::string& dir);

 private:
  using IndexViewPtr = std::shared_ptr<const detail::IndexView>;

  /// Current view under the publish lock (readers), and the writer's
  /// working copy helpers.
  std::shared_ptr<const detail::StoreView> current_view() const;
  void publish_index(const std::string& index, IndexViewPtr next);
  void publish_view(std::shared_ptr<detail::StoreView> next);
  IndexViewPtr find_index(const std::string& index) const;

  void require_writable(const char* op) const;
  void seal_locked(const std::string& index);
  void compact_locked(const std::string& index);
  void tiered_compact_locked(const std::string& index);
  /// Merge segments [first, first+count) of `index` into one (they must
  /// be adjacent, preserving base_seq continuity).
  void merge_segments_locked(const std::string& index, std::size_t first,
                             std::size_t count);

  /// Mutable per-index views during construction, frozen at publish.
  using BuildMap = std::map<std::string, std::shared_ptr<detail::IndexView>>;
  void load_manifest(BuildMap& indices);
  void write_manifest(const detail::StoreView& view) const;
  void sweep_orphan_segments(const detail::StoreView& view);
  void rotate_wal(const detail::StoreView& view);
  std::string segment_path(const std::string& index);

  std::string dir_;
  StoreConfig config_;
  bool read_only_ = false;

  std::shared_ptr<detail::ReadContext> ctx_;

  /// Guards view_ swaps/reads; held for pointer copies only.
  mutable std::mutex publish_mu_;
  std::shared_ptr<const detail::StoreView> view_;

  /// Serializes all mutating methods (single logical writer).
  std::mutex writer_mu_;
  std::unique_ptr<WalWriter> wal_;
  std::uint64_t next_segment_id_ = 0;

  // Set once during construction, immutable afterwards.
  std::uint64_t wal_batches_replayed_ = 0;
  std::uint64_t wal_tail_bytes_dropped_ = 0;
  std::uint64_t wal_records_skipped_sealed_ = 0;
  std::uint64_t orphan_segments_removed_ = 0;
};

}  // namespace p4s::store
