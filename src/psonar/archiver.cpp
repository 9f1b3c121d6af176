#include "psonar/archiver.hpp"

#include <stdexcept>

#include "store/segment.hpp"

namespace p4s::ps {

Archiver::Archiver() : backend_(std::make_unique<MemoryBackend>()) {}

Archiver::Archiver(std::unique_ptr<ArchiverBackend> backend)
    : backend_(std::move(backend)) {
  if (!backend_) backend_ = std::make_unique<MemoryBackend>();
}

void Archiver::set_backend(std::unique_ptr<ArchiverBackend> backend) {
  if (!backend) throw std::logic_error("Archiver: null backend");
  if (backend_->total_docs() > 0) {
    throw std::logic_error(
        "Archiver: cannot swap the backend of a non-empty archive");
  }
  backend_ = std::move(backend);
}

std::uint64_t Archiver::index(const std::string& index_name,
                              util::Json doc) {
  return backend_->index(index_name, std::move(doc));
}

void Archiver::for_each(
    const std::string& index_name, const Query& query,
    const std::function<bool(const util::Json&)>& visit) const {
  backend_->for_each(index_name, query, visit);
}

std::vector<util::Json> Archiver::search(const std::string& index_name,
                                         const Query& query) const {
  std::vector<util::Json> out;
  for_each(index_name, query, [&](const util::Json& doc) {
    out.push_back(doc);
    return true;
  });
  return out;
}

Archiver::Aggregation Archiver::aggregate(const std::string& index_name,
                                          const std::string& field,
                                          const Query& query) const {
  if (auto fast = backend_->aggregate_fast(index_name, field, query)) {
    return *fast;
  }
  store::ColumnSummary agg;
  for_each(index_name, query, [&](const util::Json& doc) {
    const auto value = field_at(doc, field);
    if (value.has_value() && value->is_number()) agg.add(value->as_double());
    return true;
  });
  return Aggregation::of(agg);
}

std::optional<util::Json> Archiver::latest_value(
    const std::string& index_name, const std::string& field,
    const Query& query) const {
  Query newest = query;
  newest.newest_first = true;
  newest.limit = 1;
  std::optional<util::Json> out;
  for_each(index_name, newest, [&](const util::Json& doc) {
    out = field_at(doc, field);
    return false;
  });
  return out;
}

std::optional<util::Json> Archiver::field_at(const util::Json& doc,
                                             const std::string& path) {
  // The store's resolver is the canonical one: the write path (columns,
  // bloom keys) and the query path must agree on what a dotted path
  // means.
  return store::json_field_at(doc, path);
}

std::uint64_t Archiver::doc_count(const std::string& index_name) const {
  return backend_->doc_count(index_name);
}

std::vector<std::string> Archiver::indices() const {
  return backend_->indices();
}

std::uint64_t Archiver::total_docs() const {
  return backend_->total_docs();
}

}  // namespace p4s::ps
