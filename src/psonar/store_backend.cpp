#include "psonar/store_backend.hpp"

namespace p4s::ps {

void StoreBackend::for_each(
    const std::string& index_name, const ArchiverQuery& query,
    const std::function<bool(const util::Json&)>& visit) const {
  store::ScanOptions options;
  options.range_field = query.range_field;
  options.range_min = query.range_min;
  options.range_max = query.range_max;
  options.newest_first = query.newest_first;
  for (const auto& [path, value] : query.terms) {
    // Only scalar terms have bloom/posting keys; object/array terms
    // simply don't prune (the predicate below still filters them).
    if (!value.is_object() && !value.is_array()) {
      options.term_keys.push_back(store::term_key(path, value));
    }
  }
  std::size_t matched = 0;
  store_.snapshot().scan(index_name, options, [&](const util::Json& doc) {
    if (!archiver_query_matches(doc, query)) return true;
    ++matched;
    if (!visit(doc)) return false;
    return query.limit == 0 || matched < query.limit;
  });
}

std::optional<ArchiverAggregation> StoreBackend::aggregate_fast(
    const std::string& index_name, const std::string& field,
    const ArchiverQuery& query) const {
  // The columnar path can't apply term filters or honor a limit; those
  // queries fall back to the generic scan-based aggregation.
  if (!query.terms.empty() || query.limit != 0) return std::nullopt;
  const auto agg = store_.snapshot().aggregate_column(
      index_name, field, query.range_field, query.range_min, query.range_max);
  if (!agg.has_value()) return std::nullopt;
  return ArchiverAggregation::of(*agg);
}

}  // namespace p4s::ps
