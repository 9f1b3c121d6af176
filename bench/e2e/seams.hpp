// Bench-owned wrappers that time each layer from outside, at the public
// seams the system already has: P4Switch::load_program, ControlPlane::
// set_sink, ReportChannel::set_receiver and Archiver::set_backend. They
// forward every call unchanged, so a traced run archives exactly what an
// untraced one does (the archive digest checks it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "controlplane/report.hpp"
#include "p4/pipeline.hpp"
#include "psonar/archiver_backend.hpp"
#include "psonar/logstash.hpp"
#include "sim/simulation.hpp"
#include "sketch/ddsketch.hpp"

namespace p4s::e2e {

/// Small dense id of the calling thread (0 = the first thread that asks,
/// which is the main thread: Tracer's constructor asks first).
inline std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

/// In-memory span recorder for the main thread. Spans nest by call
/// order: a span begun while another is open becomes its child.
class Tracer {
 public:
  enum class Name : std::uint8_t {
    kReport,    // TimedSink: one control-plane report handed to the sink
    kLogstash,  // Logstash::tcp_input: one line (direct wire) or chunk
    kIndex,     // Archiver backend index(): one document stored
    kLatest,    // dashboard queries, one per kind
    kRange,
    kAgg,
    kTerm,
    kMaintain,  // Store::maintain()
  };
  static constexpr std::size_t kNames = 8;
  static const char* name(Name n) {
    static constexpr const char* kText[kNames] = {
        "report", "logstash", "index", "query.latest",
        "query.range", "query.agg", "query.term", "maintain"};
    return kText[static_cast<std::size_t>(n)];
  }

  struct Span {
    Name name;
    std::uint32_t thread;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;   // index into spans(), -1 at top level
    std::int64_t ordinal;  // report emission ordinal, -1 when none
  };

  Tracer() : epoch_(std::chrono::steady_clock::now()) { thread_index(); }

  /// Nanoseconds since the tracer was created.
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::size_t begin(Name name, std::int64_t ordinal = -1) {
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back({name, thread_index(), now_ns(), 0, parent, ordinal});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    open_.pop_back();
  }

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer* tracer, Name name, std::int64_t ordinal = -1)
        : tracer_(tracer),
          id_(tracer != nullptr ? tracer->begin(name, ordinal) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::size_t id_;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Installed in a site's P4 switch in place of its DataPlaneProgram:
/// times every accepted copy's ingress and keeps the first frames for
/// the post-run replays. Runs on whichever thread executes the site's
/// pipeline (a shard worker in parallel mode); one thread at a time.
class TimedProgram final : public p4::P4Program {
 public:
  /// Every this-many-th copy span is kept in full.
  static constexpr std::uint64_t kSampleEvery = 1024;

  struct Frame {
    std::uint32_t offset;  // into bytes()
    std::uint16_t len;
    std::uint16_t port;
    SimTime ts;
  };
  struct Sample {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint32_t thread;
  };

  TimedProgram(p4::P4Program& inner, const Tracer& clock,
               std::size_t keep_frames)
      : inner_(inner),
        clock_(clock),
        keep_frames_(keep_frames),
        sketch_(sketch::DdSketchConfig{0.01, 2048, 1.0}) {}

  void ingress(p4::PacketContext& ctx) override {
    if (frames_.size() < keep_frames_) {
      frames_.push_back({static_cast<std::uint32_t>(bytes_.size()),
                         static_cast<std::uint16_t>(ctx.data.size()),
                         ctx.meta.ingress_port, ctx.meta.ingress_ts});
      bytes_.insert(bytes_.end(), ctx.data.begin(), ctx.data.end());
    }
    const std::int64_t start = clock_.now_ns();
    inner_.ingress(ctx);
    const std::int64_t end = clock_.now_ns();
    const auto ns = end - start;
    sum_ns_ += ns;
    sketch_.add(static_cast<double>(ns));
    if (count_++ % kSampleEvery == 0) {
      samples_.push_back({start, end, thread_index()});
    }
  }

  std::uint64_t count() const { return count_; }
  std::int64_t sum_ns() const { return sum_ns_; }
  const sketch::DdSketch& sketch() const { return sketch_; }
  const std::vector<Sample>& samples() const { return samples_; }
  const std::vector<Frame>& frames() const { return frames_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  p4::P4Program& inner_;
  const Tracer& clock_;
  std::size_t keep_frames_;
  std::uint64_t count_ = 0;
  std::int64_t sum_ns_ = 0;
  sketch::DdSketch sketch_;
  std::vector<Sample> samples_;
  std::vector<Frame> frames_;
  std::vector<std::uint8_t> bytes_;
};

/// Wraps a control plane's sink: one "report" span per report.
class TimedSink final : public cp::ReportSink {
 public:
  /// `ordinal` names the report about to be handed on (its position in
  /// the emission order, which the archived copy carries as @seq or
  /// @xmit_seq).
  TimedSink(cp::ReportSink& inner, Tracer& tracer,
            std::function<std::int64_t()> ordinal)
      : inner_(inner), tracer_(tracer), ordinal_(std::move(ordinal)) {}

  void on_report(const util::Json& report) override {
    Tracer::Scope span(&tracer_, Tracer::Name::kReport, ordinal_());
    inner_.on_report(report);
  }

 private:
  cp::ReportSink& inner_;
  Tracer& tracer_;
  std::function<std::int64_t()> ordinal_;
};

/// The perfect wire with a "logstash" span: does what ps::LogstashTcpSink
/// does (one JSON line into Logstash's TCP input), so the JSON encoding
/// stays in the sink's self time and Logstash gets a span of its own.
class TimedLogstashWire final : public cp::ReportSink {
 public:
  TimedLogstashWire(ps::Logstash& logstash, Tracer& tracer)
      : logstash_(logstash), tracer_(tracer) {}

  void on_report(const util::Json& report) override {
    const std::string line = report.dump() + "\n";
    Tracer::Scope span(&tracer_, Tracer::Name::kLogstash,
                       static_cast<std::int64_t>(lines_++));
    logstash_.tcp_input(line);
  }

 private:
  ps::Logstash& logstash_;
  Tracer& tracer_;
  std::uint64_t lines_ = 0;
};

/// Wraps the archiver's backend. Records every per-flow report's
/// freshness on the simulation clock — the sim time it is stored minus
/// the ts_ns of the previous report of the same kind and flow — and,
/// with a tracer, an "index" span per document.
class TimedBackend final : public ps::ArchiverBackend {
 public:
  TimedBackend(std::unique_ptr<ps::ArchiverBackend> inner,
               const sim::Simulation& sim, Tracer* tracer)
      : inner_(std::move(inner)), sim_(sim), tracer_(tracer) {}

  std::uint64_t index(const std::string& index_name,
                      util::Json doc) override {
    std::int64_t ordinal = -1;
    if (doc.is_object()) {
      record_freshness(doc);
      if (tracer_ != nullptr) {
        for (const char* key : {"@xmit_seq", "@seq"}) {
          if (doc.contains(key) && doc.at(key).is_int()) {
            ordinal = doc.at(key).as_int();
            break;
          }
        }
      }
    }
    Tracer::Scope span(tracer_, Tracer::Name::kIndex, ordinal);
    return inner_->index(index_name, std::move(doc));
  }

  void for_each(
      const std::string& index_name, const ps::ArchiverQuery& query,
      const std::function<bool(const util::Json&)>& visit) const override {
    inner_->for_each(index_name, query, visit);
  }
  std::optional<ps::ArchiverAggregation> aggregate_fast(
      const std::string& index_name, const std::string& field,
      const ps::ArchiverQuery& query) const override {
    return inner_->aggregate_fast(index_name, field, query);
  }
  std::uint64_t doc_count(const std::string& index_name) const override {
    return inner_->doc_count(index_name);
  }
  std::vector<std::string> indices() const override {
    return inner_->indices();
  }
  std::uint64_t total_docs() const override { return inner_->total_docs(); }

  /// Freshness samples in ns, in index order.
  const std::vector<SimTime>& freshness_ns() const { return freshness_; }

 private:
  // Reads through const references: Json::find would copy the flow
  // object on every document of the untraced run.
  void record_freshness(const util::Json& doc) {
    if (!doc.contains("flow") || !doc.contains("report") ||
        !doc.contains("ts_ns")) {
      return;
    }
    const util::Json& flow = doc.at("flow");
    const util::Json& kind = doc.at("report");
    const util::Json& ts = doc.at("ts_ns");
    if (!flow.is_object() || !kind.is_string() || !ts.is_int()) return;
    std::string key = kind.as_string();
    if (doc.contains("switch_id") && doc.at("switch_id").is_string()) {
      key += '\0';
      key += doc.at("switch_id").as_string();
    }
    if (flow.contains("id") && flow.at("id").is_int()) {
      key += '\0';
      key += std::to_string(flow.at("id").as_int());
    }
    auto [it, first] = last_ts_.try_emplace(std::move(key), ts.as_int());
    if (!first) {
      freshness_.push_back(sim_.now() - it->second);
      it->second = ts.as_int();
    }
  }

  std::unique_ptr<ps::ArchiverBackend> inner_;
  const sim::Simulation& sim_;
  Tracer* tracer_;
  std::unordered_map<std::string, SimTime> last_ts_;
  std::vector<SimTime> freshness_;
};

}  // namespace p4s::e2e
