// The archiver's storage-backend seam.
//
// ps::Archiver exposes the OpenSearch-subset API the dashboards use
// (index / search / for_each / aggregate); an ArchiverBackend supplies
// the storage underneath it. MemoryBackend (the default) is the original
// in-memory map of indices; StoreBackend (store_backend.hpp) runs the
// same queries on the durable segmented store. Every consumer goes
// through the seam — nothing outside the backends touches document
// storage directly (a grep-enforced test pins this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "store/segment.hpp"
#include "util/json.hpp"

namespace p4s::ps {

/// Search parameters. (Namespace-scope so its defaulted members can be
/// used in Archiver's own default arguments.)
struct ArchiverQuery {
  /// Exact-match terms: dotted paths -> required value
  /// (e.g. {"flow.dst_ip": "10.1.0.10"}).
  std::map<std::string, util::Json> terms;
  /// Optional range filter on a numeric field.
  std::string range_field;
  std::optional<double> range_min;
  std::optional<double> range_max;
  /// Stop after this many matches (0 = unlimited). With newest_first,
  /// this is OpenSearch's latest-value idiom: size N, sorted descending.
  std::size_t limit = 0;
  /// Visit documents in reverse insertion order (newest first) instead
  /// of insertion order.
  bool newest_first = false;
};

struct ArchiverAggregation {
  std::uint64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double avg = 0.0;
  double sum = 0.0;

  static ArchiverAggregation of(const store::ColumnSummary& s) {
    return {s.count, s.min, s.max, s.mean(), s.sum};
  }
};

/// Full query predicate (terms + range); backends re-check every visited
/// document with this, so pruning can only ever over-approximate.
bool archiver_query_matches(const util::Json& doc,
                            const ArchiverQuery& query);

class ArchiverBackend {
 public:
  virtual ~ArchiverBackend() = default;

  /// Store a document; returns its sequence id within the index.
  virtual std::uint64_t index(const std::string& index_name,
                              util::Json doc) = 0;

  /// Visit matching documents in the query's order, at most query.limit
  /// of them; the visitor returns false to stop early.
  virtual void for_each(
      const std::string& index_name, const ArchiverQuery& query,
      const std::function<bool(const util::Json&)>& visit) const = 0;

  /// Optional aggregation fast path (e.g. columnar); nullopt = caller
  /// falls back to the generic for_each-based aggregation.
  virtual std::optional<ArchiverAggregation> aggregate_fast(
      const std::string& index_name, const std::string& field,
      const ArchiverQuery& query) const {
    (void)index_name;
    (void)field;
    (void)query;
    return std::nullopt;
  }

  virtual std::uint64_t doc_count(const std::string& index_name) const = 0;
  virtual std::vector<std::string> indices() const = 0;
  virtual std::uint64_t total_docs() const = 0;
};

/// The original archiver storage: per-index vectors of documents, full
/// scans for every query. Fast enough for single runs, nothing survives
/// the process.
class MemoryBackend final : public ArchiverBackend {
 public:
  std::uint64_t index(const std::string& index_name,
                      util::Json doc) override;
  void for_each(
      const std::string& index_name, const ArchiverQuery& query,
      const std::function<bool(const util::Json&)>& visit) const override;
  std::uint64_t doc_count(const std::string& index_name) const override;
  std::vector<std::string> indices() const override;
  std::uint64_t total_docs() const override { return total_docs_; }

 private:
  std::map<std::string, std::vector<util::Json>> docs_by_index_;
  std::uint64_t total_docs_ = 0;
};

}  // namespace p4s::ps
