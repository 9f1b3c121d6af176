#include "psonar/analytics.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

namespace p4s::ps {

namespace {

/// `v` as a timestamp or byte count, or nullopt when it is absent, not a
/// number, negative or past int64's range. Archived documents are
/// untrusted: a view skips a document with such a field instead of
/// failing whole.
std::optional<std::uint64_t> non_negative_int(
    const std::optional<util::Json>& v) {
  if (!v || !v->is_number()) return std::nullopt;
  try {
    const std::int64_t i = v->as_int();
    if (i < 0) return std::nullopt;
    return static_cast<std::uint64_t>(i);
  } catch (const util::JsonError&) {
    return std::nullopt;
  }
}

}  // namespace

std::vector<Analytics::TrendBucket> Analytics::throughput_trend(
    const std::string& dst_ip, SimTime bucket) const {
  std::map<SimTime, TrendBucket> buckets;
  Archiver::Query query;
  query.terms["flow.dst_ip"] = util::Json(dst_ip);
  archiver_.for_each("p4sonar-throughput", query, [&](const util::Json& doc) {
    const auto ts = non_negative_int(Archiver::field_at(doc, "ts_ns"));
    const auto bps = Archiver::field_at(doc, "throughput_bps");
    if (!ts || !bps || !bps->is_number()) return true;
    const SimTime start = *ts / bucket * bucket;
    TrendBucket& b = buckets[start];
    b.start = start;
    // Incremental mean.
    ++b.samples;
    b.mean_throughput_bps +=
        (bps->as_double() - b.mean_throughput_bps) /
        static_cast<double>(b.samples);
    return true;
  });
  std::vector<TrendBucket> out;
  out.reserve(buckets.size());
  for (const auto& [start, b] : buckets) {
    (void)start;
    out.push_back(b);
  }
  return out;
}

std::vector<Analytics::Talker> Analytics::top_talkers(
    std::size_t limit) const {
  std::map<std::string, Talker> talkers;
  archiver_.for_each("p4sonar-flow_final", {}, [&](const util::Json& doc) {
    const auto dst = Archiver::field_at(doc, "flow.dst_ip");
    const auto bytes = non_negative_int(Archiver::field_at(doc, "bytes"));
    const auto retx = Archiver::field_at(doc, "retransmission_pct");
    if (!dst || !dst->is_string() || !bytes ||
        (retx && !retx->is_number())) {
      return true;
    }
    Talker& t = talkers[dst->as_string()];
    t.dst_ip = dst->as_string();
    const std::uint64_t b = *bytes;
    // Bytes-weighted retransmission percentage.
    const double prev_weight = static_cast<double>(t.bytes);
    t.bytes += b;
    ++t.flows;
    if (retx && t.bytes > 0) {
      t.retransmission_pct =
          (t.retransmission_pct * prev_weight +
           retx->as_double() * static_cast<double>(b)) /
          static_cast<double>(t.bytes);
    }
    return true;
  });
  std::vector<Talker> out;
  out.reserve(talkers.size());
  for (const auto& [dst, t] : talkers) {
    (void)dst;
    out.push_back(t);
  }
  std::sort(out.begin(), out.end(), [](const Talker& a, const Talker& b) {
    return a.bytes > b.bytes;
  });
  if (out.size() > limit) out.resize(limit);
  return out;
}

std::vector<Analytics::Anomaly> Analytics::detect_anomalies(
    const std::string& index, const std::string& field,
    const Archiver::Query& query, const AnomalyConfig& config) const {
  std::vector<Analytics::Anomaly> anomalies;
  double ewma = 0.0;
  double mad = 0.0;  // running mean absolute deviation
  std::size_t n = 0;
  archiver_.for_each(index, query, [&](const util::Json& doc) {
    const auto value = Archiver::field_at(doc, field);
    if (!value || !value->is_number()) return true;
    // A point without a timestamp reports at 0; one with a malformed
    // timestamp is skipped before it moves the baseline.
    const auto ts = Archiver::field_at(doc, "ts_ns");
    const auto at = non_negative_int(ts);
    if (ts && !at) return true;
    const double v = value->as_double();
    if (n == 0) {
      ewma = v;
      mad = 0.0;
      ++n;
      return true;
    }
    const double dev = std::abs(v - ewma);
    const bool armed = n >= config.warmup;
    const double band = config.band_factor * std::max(mad, 1e-9);
    if (armed && mad > 0.0 && dev > band) {
      Anomaly a;
      a.at = at.value_or(0);
      a.value = v;
      a.expected = ewma;
      a.deviation = dev / band;
      anomalies.push_back(a);
      // An anomalous point perturbs the baseline only mildly, so a
      // plateau keeps flagging until it becomes the new normal.
      ewma += config.alpha * 0.25 * (v - ewma);
      mad += config.alpha * 0.25 * (dev - mad);
    } else {
      ewma += config.alpha * (v - ewma);
      mad += config.alpha * (dev - mad);
    }
    ++n;
    return true;
  });
  return anomalies;
}

}  // namespace p4s::ps
