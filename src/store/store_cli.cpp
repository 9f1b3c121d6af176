#include "store/store_cli.hpp"

#include <string>
#include <vector>

#include "store/store.hpp"

namespace p4s::store {

namespace {

int usage(std::ostream& err) {
  err << "usage: p4s-store info        <dir>\n"
         "       p4s-store verify      <dir>\n"
         "       p4s-store compact     <dir> [<index>]\n"
         "       p4s-store dump        <dir> <index> [--limit N] [--newest]\n"
         "       p4s-store serve-stats <dir>\n";
  return 2;
}

int cmd_info(const std::string& dir, std::ostream& out, std::ostream& err) {
  try {
    // Read-only: inspecting a store must not create directories or WAL
    // files as a side effect.
    const Store store(dir, {}, OpenMode::read_only);
    const Snapshot snapshot = store.snapshot();
    out << "store: " << dir << "\n";
    out << "  total docs:   " << snapshot.total_docs() << "\n";
    const auto stats = store.stats();
    out << "  wal batches:  " << stats.wal_batches_replayed
        << " (tail bytes dropped: " << stats.wal_tail_bytes_dropped
        << ", sealed records skipped: " << stats.wal_records_skipped_sealed
        << ")\n";
    for (const auto& index : snapshot.indices()) {
      out << "  index " << index << ": " << snapshot.doc_count(index)
          << " docs (" << snapshot.memtable_docs(index) << " unsealed), "
          << snapshot.segment_count(index) << " segment(s)\n";
    }
    return 0;
  } catch (const StoreError& e) {
    err << "p4s-store: " << e.what() << "\n";
    return 2;
  }
}

int cmd_verify(const std::string& dir, std::ostream& out,
               std::ostream& err) {
  const auto result = Store::verify(dir);
  out << "verify: " << dir << "\n";
  out << "  segments:     " << result.segments << "\n";
  out << "  sealed docs:  " << result.sealed_docs << "\n";
  out << "  wal docs:     " << result.wal_docs << "\n";
  out << "  wal tail dropped bytes: " << result.wal_tail_bytes_dropped
      << "\n";
  if (!result.ok) {
    for (const auto& error : result.errors) {
      err << "p4s-store: " << error << "\n";
    }
    out << "  result:       CORRUPT\n";
    return 2;
  }
  out << "  result:       OK\n";
  return 0;
}

int cmd_compact(const std::string& dir, const std::string& index,
                std::ostream& out, std::ostream& err) {
  try {
    Store store(dir);
    const auto indices = index.empty() ? store.snapshot().indices()
                                       : std::vector<std::string>{index};
    for (const auto& name : indices) {
      const auto before = store.snapshot().segment_count(name);
      store.compact(name);
      out << "compact " << name << ": " << before << " -> "
          << store.snapshot().segment_count(name) << " segment(s)\n";
    }
    return 0;
  } catch (const StoreError& e) {
    err << "p4s-store: " << e.what() << "\n";
    return 2;
  }
}

int cmd_dump(const std::string& dir, const std::string& index,
             std::size_t limit, bool newest, std::ostream& out,
             std::ostream& err) {
  try {
    const Store store(dir, {}, OpenMode::read_only);
    std::size_t printed = 0;
    ScanOptions options;
    options.newest_first = newest;
    store.snapshot().scan(index, options, [&](const util::Json& doc) {
      out << doc.dump() << "\n";
      ++printed;
      return limit == 0 || printed < limit;
    });
    return 0;
  } catch (const StoreError& e) {
    err << "p4s-store: " << e.what() << "\n";
    return 2;
  }
}

int cmd_serve_stats(const std::string& dir, std::ostream& out,
                    std::ostream& err) {
  try {
    const Store store(dir, {}, OpenMode::read_only);
    // Exercise the serving read path once per index so the pruning/cache
    // counters below describe this store's data, not just zeros: one
    // full scan loads every segment (misses), a second reuses them (hits).
    for (int round = 0; round < 2; ++round) {
      const Snapshot snapshot = store.snapshot();
      for (const auto& index : snapshot.indices()) {
        snapshot.scan(index, ScanOptions{},
                      [](const util::Json&) { return true; });
      }
    }
    const auto stats = store.stats();
    out << "serve-stats: " << dir << "\n";
    out << "  snapshots:        " << stats.snapshots << "\n";
    out << "  scans:            " << stats.scans << "\n";
    out << "  segments scanned: " << stats.segments_scanned << " of "
        << stats.segments_considered << " considered\n";
    out << "  pruned:           range " << stats.segments_pruned_range
        << ", terms " << stats.segments_pruned_terms << ", postings "
        << stats.segments_pruned_postings << "\n";
    out << "  postings rows:    " << stats.postings_rows_seeked << "\n";
    out << "  cache:            " << stats.cache_hits << " hit(s), "
        << stats.cache_misses << " miss(es)\n";
    out << "  gc:               " << stats.segments_retired << " retired, "
        << stats.segments_gc_deleted << " deleted, " << stats.gc_pending()
        << " pending\n";
    return 0;
  } catch (const StoreError& e) {
    err << "p4s-store: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int store_cli(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(err);
  const std::string& cmd = args[0];

  if (cmd == "info" && args.size() == 2) {
    return cmd_info(args[1], out, err);
  }
  if (cmd == "verify" && args.size() == 2) {
    return cmd_verify(args[1], out, err);
  }
  if (cmd == "compact" && (args.size() == 2 || args.size() == 3)) {
    return cmd_compact(args[1], args.size() == 3 ? args[2] : "", out, err);
  }
  if (cmd == "serve-stats" && args.size() == 2) {
    return cmd_serve_stats(args[1], out, err);
  }
  if (cmd == "dump" && args.size() >= 3) {
    std::size_t limit = 0;
    bool newest = false;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "--newest") {
        newest = true;
      } else if (args[i] == "--limit" && i + 1 < args.size()) {
        try {
          limit = static_cast<std::size_t>(std::stoull(args[++i]));
        } catch (const std::exception&) {
          return usage(err);
        }
      } else {
        return usage(err);
      }
    }
    return cmd_dump(args[1], args[2], limit, newest, out, err);
  }
  return usage(err);
}

}  // namespace p4s::store
