// The perfSONAR archiver: an OpenSearch-like document store (§3.3.5,
// Figure 7 — "the final version of the reports is shipped to the archive,
// i.e. the OpenSearch database").
//
// Documents are JSON, organized into named indices, queryable by exact
// field match and by time range, with basic metric aggregations — the
// subset of OpenSearch the perfSONAR dashboards actually use.
//
// Storage is pluggable (archiver_backend.hpp): the default MemoryBackend
// keeps everything in process memory, StoreBackend persists to the
// durable segmented store (`src/store`) so an archive survives the
// process and time-range queries prune whole segments.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "psonar/archiver_backend.hpp"
#include "util/json.hpp"

namespace p4s::ps {

class Archiver {
 public:
  /// Defaults to the in-memory backend.
  Archiver();
  explicit Archiver(std::unique_ptr<ArchiverBackend> backend);

  /// Swap the storage backend. Only legal while the archive is empty
  /// (documents don't migrate between backends); throws std::logic_error
  /// otherwise.
  void set_backend(std::unique_ptr<ArchiverBackend> backend);
  ArchiverBackend& backend() { return *backend_; }
  const ArchiverBackend& backend() const { return *backend_; }

  /// Store a document. Returns the document's sequence id within the
  /// index.
  std::uint64_t index(const std::string& index_name, util::Json doc);

  using Query = ArchiverQuery;

  /// Matching documents of an index, in the query's order (insertion
  /// order, or newest first), at most `query.limit` of them.
  std::vector<util::Json> search(const std::string& index_name,
                                 const Query& query = {}) const;

  /// Visit matching documents without copying them; the visitor returns
  /// false to stop early. Order and limit follow the query. This is what
  /// dashboard-style consumers should use instead of materializing a
  /// search() result they immediately reduce.
  void for_each(const std::string& index_name, const Query& query,
                const std::function<bool(const util::Json&)>& visit) const;

  using Aggregation = ArchiverAggregation;

  /// Aggregate a numeric field over the query's matches (backends may
  /// satisfy this from column summaries without visiting documents).
  Aggregation aggregate(const std::string& index_name,
                        const std::string& field,
                        const Query& query = {}) const;

  /// The newest matching document's `field` (the dashboards'
  /// latest-value idiom: newest first, size 1). nullopt when nothing
  /// matches or the newest match lacks the field.
  std::optional<util::Json> latest_value(const std::string& index_name,
                                         const std::string& field,
                                         const Query& query = {}) const;

  std::uint64_t doc_count(const std::string& index_name) const;
  std::vector<std::string> indices() const;
  std::uint64_t total_docs() const;

  /// Resolve a dotted path ("flow.dst_ip") inside a document.
  static std::optional<util::Json> field_at(const util::Json& doc,
                                            const std::string& path);

 private:
  std::unique_ptr<ArchiverBackend> backend_;
};

}  // namespace p4s::ps
