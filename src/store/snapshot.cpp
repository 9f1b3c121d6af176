#include "store/snapshot.hpp"

#include <algorithm>
#include <filesystem>

namespace p4s::store {

namespace detail {

SegmentHandle::~SegmentHandle() {
  if (!retired.load(std::memory_order_acquire)) return;
  // Last reference died after compaction replaced this segment: unlink
  // the file. This may run on a reader thread (the snapshot that kept
  // the segment alive), which is why everything needed lives in ctx.
  std::error_code ec;
  std::filesystem::remove(ctx->dir + "/" + file, ec);
  ctx->counters.segments_gc_deleted.fetch_add(1, std::memory_order_relaxed);
}

std::shared_ptr<const Segment> SegmentHandle::load() const {
  std::lock_guard<std::mutex> lock(load_mu_);
  if (loaded_) {
    ctx->counters.cache_hits.fetch_add(1, std::memory_order_relaxed);
    return loaded_;
  }
  ctx->counters.cache_misses.fetch_add(1, std::memory_order_relaxed);
  auto seg = std::make_shared<Segment>(Segment::load(ctx->dir + "/" + file));
  if (seg->info().docs != info.docs ||
      seg->info().base_seq != info.base_seq) {
    throw StoreError("store: segment " + file +
                     " disagrees with the manifest");
  }
  loaded_ = std::move(seg);
  return loaded_;
}

}  // namespace detail

namespace {

/// nullopt would mean "cannot decide"; pruning only needs true = the
/// segment cannot contain a match.
bool prune_by_range(const detail::SegmentHandle& handle,
                    const ScanOptions& options) {
  if (options.range_field.empty()) return false;
  const auto it = handle.summaries.find(options.range_field);
  if (it == handle.summaries.end()) return false;  // not columnar: scan
  const ColumnSummary& s = it->second;
  // No document in the segment carries the field numerically -> no
  // document can match a range filter on it.
  if (s.count == 0) return true;
  if (options.range_min.has_value() && s.max < *options.range_min) {
    return true;
  }
  if (options.range_max.has_value() && s.min > *options.range_max) {
    return true;
  }
  return false;
}

std::vector<std::uint32_t> intersect_sorted(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  std::vector<std::uint32_t> out;
  out.reserve(std::min(a.size(), b.size()));
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace

const detail::IndexView* Snapshot::find_index(const std::string& index) const {
  const auto it = view_->indices.find(index);
  return it == view_->indices.end() ? nullptr : it->second.get();
}

std::uint64_t Snapshot::doc_count(const std::string& index) const {
  const auto* state = find_index(index);
  return state == nullptr ? 0 : state->sealed_docs + state->memtable_count;
}

std::uint64_t Snapshot::total_docs() const {
  std::uint64_t total = 0;
  for (const auto& [name, state] : view_->indices) {
    (void)name;
    total += state->sealed_docs + state->memtable_count;
  }
  return total;
}

std::vector<std::string> Snapshot::indices() const {
  std::vector<std::string> names;
  names.reserve(view_->indices.size());
  for (const auto& [name, state] : view_->indices) {
    (void)state;
    names.push_back(name);
  }
  return names;
}

std::uint64_t Snapshot::segment_count(const std::string& index) const {
  const auto* state = find_index(index);
  return state == nullptr ? 0 : state->segments.size();
}

std::uint64_t Snapshot::memtable_docs(const std::string& index) const {
  const auto* state = find_index(index);
  return state == nullptr ? 0 : state->memtable_count;
}

void Snapshot::scan(const std::string& index, const ScanOptions& options,
                    const std::function<bool(const util::Json&)>& visit) const {
  const auto* state = find_index(index);
  if (state == nullptr) return;
  auto& counters = ctx_->counters;
  counters.scans.fetch_add(1, std::memory_order_relaxed);

  bool stopped = false;
  const auto scan_segment = [&](const detail::SegmentHandle& handle) {
    counters.segments_considered.fetch_add(1, std::memory_order_relaxed);
    if (prune_by_range(handle, options)) {
      counters.segments_pruned_range.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Term filtering needs the segment's index blocks. Posting-covered
    // keys resolve to exact row lists (intersected across keys); keys on
    // uncovered fields fall back to the bloom filter, which can still
    // prune the whole segment.
    std::shared_ptr<const Segment> seg;
    std::optional<std::vector<std::uint32_t>> rows;
    for (const auto& key : options.term_keys) {
      if (!seg) seg = handle.load();
      auto posted = seg->postings(key);
      if (posted.has_value()) {
        rows = rows.has_value() ? intersect_sorted(*rows, *posted)
                                : std::move(*posted);
        if (rows->empty()) {
          counters.segments_pruned_postings.fetch_add(
              1, std::memory_order_relaxed);
          return;
        }
      } else if (!seg->maybe_contains_term(key)) {
        counters.segments_pruned_terms.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    if (!seg) seg = handle.load();
    counters.segments_scanned.fetch_add(1, std::memory_order_relaxed);
    const auto visit_text = [&](std::string_view text) {
      const util::Json doc = util::Json::parse(text);
      if (!visit(doc)) {
        stopped = true;
        return false;
      }
      return true;
    };
    if (rows.has_value()) {
      // Seek straight to the candidate rows instead of parsing every
      // document in the segment.
      counters.postings_rows_seeked.fetch_add(rows->size(),
                                              std::memory_order_relaxed);
      if (options.newest_first) {
        for (auto r = rows->rbegin(); r != rows->rend(); ++r) {
          if (!visit_text(seg->doc_text(*r))) break;
        }
      } else {
        for (const std::uint32_t r : *rows) {
          if (!visit_text(seg->doc_text(r))) break;
        }
      }
      return;
    }
    seg->for_each_doc(options.newest_first,
                      [&](std::uint64_t, std::string_view text) {
                        return visit_text(text);
                      });
  };
  const auto scan_memtable = [&] {
    if (options.newest_first) {
      for (auto c = state->chunks.rbegin();
           !stopped && c != state->chunks.rend(); ++c) {
        for (auto d = (*c)->docs.rbegin();
             !stopped && d != (*c)->docs.rend(); ++d) {
          if (!visit(**d)) stopped = true;
        }
      }
    } else {
      for (const auto& chunk : state->chunks) {
        if (stopped) break;
        for (const auto& doc : chunk->docs) {
          if (stopped) break;
          if (!visit(*doc)) stopped = true;
        }
      }
    }
  };

  if (options.newest_first) {
    scan_memtable();
    for (auto s = state->segments.rbegin();
         !stopped && s != state->segments.rend(); ++s) {
      scan_segment(**s);
    }
  } else {
    for (const auto& handle : state->segments) {
      if (stopped) break;
      scan_segment(*handle);
    }
    if (!stopped) scan_memtable();
  }
}

std::optional<ColumnAggregate> Snapshot::aggregate_column(
    const std::string& index, const std::string& field,
    const std::string& range_field, std::optional<double> range_min,
    std::optional<double> range_max) const {
  if (!is_columnar(field)) return std::nullopt;
  const bool ranged = !range_field.empty();
  if (ranged && !is_columnar(range_field)) return std::nullopt;

  const auto in_range = [&](double v) {
    if (range_min.has_value() && v < *range_min) return false;
    if (range_max.has_value() && v > *range_max) return false;
    return true;
  };
  ColumnAggregate agg;

  const auto* state = find_index(index);
  if (state == nullptr) return agg;
  for (const auto& handle : state->segments) {
    const auto fit = handle->summaries.find(field);
    const ColumnSummary& fs =
        fit == handle->summaries.end() ? ColumnSummary{} : fit->second;
    if (!ranged) {
      agg.merge(fs);
      continue;
    }
    const auto rit = handle->summaries.find(range_field);
    const ColumnSummary& rs =
        rit == handle->summaries.end() ? ColumnSummary{} : rit->second;
    if (rs.count == 0) continue;  // no document can pass the range filter
    const bool fully_inside =
        (!range_min.has_value() || rs.min >= *range_min) &&
        (!range_max.has_value() || rs.max <= *range_max);
    if (fully_inside && range_field == field) {
      // Every document carrying the field passes the filter on it.
      agg.merge(fs);
      continue;
    }
    if (rs.max < range_min.value_or(rs.max) ||
        rs.min > range_max.value_or(rs.min)) {
      continue;  // disjoint: prune
    }
    // Partial overlap (or the filter is on another column): decode the
    // columns and fold row by row — still no document JSON parsing.
    const auto seg = handle->load();
    const auto range_vals = seg->decode_column(range_field);
    const auto field_vals =
        field == range_field ? range_vals : seg->decode_column(field);
    for (std::size_t i = 0; i < field_vals.size(); ++i) {
      if (!range_vals[i].has_value() || !in_range(*range_vals[i])) continue;
      if (!field_vals[i].has_value()) continue;
      agg.add(*field_vals[i]);
    }
  }
  // Memtable rows are walked directly (they are already parsed JSON).
  for (const auto& chunk : state->chunks) {
    for (const auto& doc : chunk->docs) {
      if (ranged) {
        const auto rv = json_field_at(*doc, range_field);
        if (!rv.has_value() || !rv->is_number() ||
            !in_range(rv->as_double())) {
          continue;
        }
      }
      const auto fv = json_field_at(*doc, field);
      if (!fv.has_value() || !fv->is_number()) continue;
      agg.add(fv->as_double());
    }
  }
  return agg;
}

}  // namespace p4s::store
