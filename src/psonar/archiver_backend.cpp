#include "psonar/archiver_backend.hpp"

namespace p4s::ps {

bool archiver_query_matches(const util::Json& doc,
                            const ArchiverQuery& query) {
  for (const auto& [path, expected] : query.terms) {
    auto value = store::json_field_at(doc, path);
    if (!value.has_value() || !(*value == expected)) return false;
  }
  if (!query.range_field.empty()) {
    auto value = store::json_field_at(doc, query.range_field);
    if (!value.has_value() || !value->is_number()) return false;
    const double v = value->as_double();
    if (query.range_min.has_value() && v < *query.range_min) return false;
    if (query.range_max.has_value() && v > *query.range_max) return false;
  }
  return true;
}

std::uint64_t MemoryBackend::index(const std::string& index_name,
                                   util::Json doc) {
  auto& docs = docs_by_index_[index_name];
  docs.push_back(std::move(doc));
  ++total_docs_;
  return docs.size() - 1;
}

void MemoryBackend::for_each(
    const std::string& index_name, const ArchiverQuery& query,
    const std::function<bool(const util::Json&)>& visit) const {
  auto it = docs_by_index_.find(index_name);
  if (it == docs_by_index_.end()) return;
  const auto& docs = it->second;
  std::size_t matched = 0;
  const auto consider = [&](const util::Json& doc) {
    if (!archiver_query_matches(doc, query)) return true;
    ++matched;
    if (!visit(doc)) return false;
    return query.limit == 0 || matched < query.limit;
  };
  if (query.newest_first) {
    for (auto d = docs.rbegin(); d != docs.rend(); ++d) {
      if (!consider(*d)) return;
    }
  } else {
    for (const auto& doc : docs) {
      if (!consider(doc)) return;
    }
  }
}

std::uint64_t MemoryBackend::doc_count(const std::string& index_name) const {
  auto it = docs_by_index_.find(index_name);
  return it == docs_by_index_.end() ? 0 : it->second.size();
}

std::vector<std::string> MemoryBackend::indices() const {
  std::vector<std::string> names;
  names.reserve(docs_by_index_.size());
  for (const auto& [name, docs] : docs_by_index_) {
    (void)docs;
    names.push_back(name);
  }
  return names;
}

}  // namespace p4s::ps
