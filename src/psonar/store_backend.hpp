// StoreBackend: the durable archiver backend.
//
// Runs every ArchiverQuery against a store::Store — sealed segments plus
// the memtable, on one pinned snapshot per call — translating the query's
// range filter and exact-match terms into the store's pruning hints
// (segment min/max column stats, term bloom filters). Pruning only skips
// segments that *cannot* match; every visited document is still
// re-checked with the full predicate, so results are identical to
// MemoryBackend's, just durable and cheaper on time-windowed queries.
// Aggregations over columnar fields are answered from per-segment column
// summaries without parsing document JSON.
#pragma once

#include "psonar/archiver_backend.hpp"
#include "store/store.hpp"

namespace p4s::ps {

class StoreBackend final : public ArchiverBackend {
 public:
  /// Non-owning: the store outlives the archiver (the MonitoringSystem
  /// owns both; the CLI opens a store without any archiver at all).
  explicit StoreBackend(store::Store& store) : store_(store) {}

  std::uint64_t index(const std::string& index_name,
                      util::Json doc) override {
    return store_.append(index_name, doc);
  }

  void for_each(
      const std::string& index_name, const ArchiverQuery& query,
      const std::function<bool(const util::Json&)>& visit) const override;

  std::optional<ArchiverAggregation> aggregate_fast(
      const std::string& index_name, const std::string& field,
      const ArchiverQuery& query) const override;

  std::uint64_t doc_count(const std::string& index_name) const override {
    return store_.snapshot().doc_count(index_name);
  }
  std::vector<std::string> indices() const override {
    return store_.snapshot().indices();
  }
  std::uint64_t total_docs() const override {
    return store_.snapshot().total_docs();
  }

  store::Store& store() { return store_; }
  const store::Store& store() const { return store_; }

 private:
  store::Store& store_;
};

}  // namespace p4s::ps
