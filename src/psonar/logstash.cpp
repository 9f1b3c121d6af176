#include "psonar/logstash.hpp"

namespace p4s::ps {

void Logstash::add_filter(std::string name, Filter filter) {
  filters_.emplace_back(std::move(name), std::move(filter));
}

std::string Logstash::index_for(const util::Json& doc) {
  std::string kind = "event";
  if (doc.is_object() && doc.contains("report") &&
      doc.at("report").is_string()) {
    kind = doc.at("report").as_string();
  }
  std::string prefix = "p4sonar-";
  if (doc.is_object() && doc.contains("tool")) prefix = "pscheduler-";
  return prefix + kind;
}

void Logstash::event(util::Json doc) {
  ++events_in_;
  if (doc.is_object() && doc.contains("@xmit_seq") &&
      doc.at("@xmit_seq").is_int()) {
    const auto seq = static_cast<std::uint64_t>(doc.at("@xmit_seq").as_int());
    // Ack every occurrence (the sender retires the frame on the first);
    // archive only the first — at-least-once + dedup == exactly-once.
    if (transport_ack_) transport_ack_(seq);
    if (!seen_xmit_seqs_.insert(seq).second) {
      ++duplicates_dropped_;
      return;
    }
  }
  for (const auto& [name, filter] : filters_) {
    auto next = filter(std::move(doc));
    if (!next.has_value()) {
      ++events_dropped_;
      return;
    }
    doc = std::move(*next);
  }
  output(std::move(doc));
}

void Logstash::tcp_input(std::string_view payload) {
  bytes_in_ += payload.size();
  partial_.append(payload);
  std::size_t start = 0;
  while (true) {
    const std::size_t end = partial_.find('\n', start);
    if (end == std::string::npos) break;  // no full line yet; keep tail
    if (end > start) {
      ++lines_in_;
      const std::string_view line(partial_.data() + start, end - start);
      try {
        event(util::Json::parse(line));
      } catch (const util::JsonError&) {
        ++parse_failures_;  // real plugin tags _jsonparsefailure
      }
    }
    start = end + 1;
  }
  partial_.erase(0, start);
}

void Logstash::tcp_reset() {
  ++tcp_resets_;
  partial_.clear();
}

void Logstash::output(util::Json doc) {
  // The OpenSearch output plugin decorates the event with archive
  // metadata: this is what turns Report_v1 into Report_v2 (Figure 7).
  if (doc.is_object()) {
    if (doc.contains("ts_ns")) {
      doc["@timestamp"] = doc.at("ts_ns");
    }
    doc["@seq"] = static_cast<std::int64_t>(sequence_++);
    doc["@pipeline"] = "p4sonar";
  }
  const std::string index = index_for(doc);
  archiver_.index(index, std::move(doc));
  ++events_out_;
}

}  // namespace p4s::ps
