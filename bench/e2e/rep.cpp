#include "rep.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/config_loader.hpp"
#include "mpl/compiler.hpp"
#include "mpl/vm.hpp"
#include "p4/p4_switch.hpp"
#include "psonar/store_backend.hpp"
#include "seams.hpp"
#include "stats.hpp"

namespace p4s::e2e {

namespace {

using Clock = std::chrono::steady_clock;
using util::Json;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

constexpr const char* kThroughputIndex = "p4sonar-throughput";
constexpr const char* kRttIndex = "p4sonar-rtt";
/// Frames of site 0 kept for the post-run replays.
constexpr std::size_t kKeptFrames = 262144;

/// The dashboard: one refresh per period of simulated time, each the
/// four panel queries back to back — the newest throughput value, a 10-s
/// ts_ns range search and a 10-s throughput_bps aggregate over
/// p4sonar-throughput, and the newest 20 TCP documents of p4sonar-rtt —
/// through the archive's query API: the StoreServer on the durable
/// workload, the Archiver otherwise. A closed loop with one client: the
/// next refresh waits for the simulation to reach its time. A refresh's
/// latency is the sum of its four queries (a mix of four kinds has gaps
/// between the kinds, which make a per-query median jump between them).
class Dashboard {
 public:
  enum Kind { kLatest, kRange, kAgg, kTerm, kKinds };
  static constexpr Tracer::Name kSpan[kKinds] = {
      Tracer::Name::kLatest, Tracer::Name::kRange, Tracer::Name::kAgg,
      Tracer::Name::kTerm};
  static constexpr const char* kKindName[kKinds] = {"latest", "range", "agg",
                                                    "term"};

  Dashboard(core::MonitoringSystem& system, Tracer* tracer)
      : system_(system), tracer_(tracer) {}

  void refresh() {
    const SimTime now = system_.simulation().now();
    ps::ArchiverQuery window;
    window.range_field = "ts_ns";
    window.range_min =
        static_cast<double>(std::max<SimTime>(0, now - units::seconds(10)));
    window.range_max = static_cast<double>(now);
    ps::ArchiverQuery term;
    term.terms["flow.protocol"] = Json(6);
    term.limit = 20;
    term.newest_first = true;

    std::optional<Json> latest;
    std::vector<Json> range_docs;
    ps::ArchiverAggregation agg;
    std::vector<Json> term_docs;
    double refresh_us = 0.0;
    for (int k = 0; k < kKinds; ++k) {
      const auto t0 = Clock::now();
      {
        Tracer::Scope span(tracer_, kSpan[k]);
        switch (k) {
          case kLatest: latest = latest_throughput(); break;
          case kRange: range_docs = search(kThroughputIndex, window); break;
          case kAgg:
            agg = aggregate(kThroughputIndex, "throughput_bps", window);
            break;
          case kTerm: term_docs = search(kRttIndex, term); break;
        }
      }
      const double us = seconds_since(t0) * 1e6;
      latency_us_[k].push_back(us);
      refresh_us += us;
    }
    refresh_us_.push_back(refresh_us);

    // Each panel must show what it asked for (checked outside timing).
    bool ok = system_.psonar().archiver().doc_count(kThroughputIndex) == 0 ||
              (latest.has_value() && latest->is_number());
    for (const Json& doc : range_docs) {
      const double ts = doc.at("ts_ns").as_double();
      ok = ok && ts >= *window.range_min && ts <= *window.range_max;
    }
    ok = ok && (agg.count == 0 || (agg.min <= agg.avg * (1 + 1e-9) &&
                                   agg.avg <= agg.max * (1 + 1e-9)));
    ok = ok && term_docs.size() <= 20;
    for (const Json& doc : term_docs) {
      ok = ok && doc.at("flow").at("protocol") == Json(6);
    }
    if (!ok) ++errors_;
  }

  const std::vector<double>& latency_us(Kind kind) const {
    return latency_us_[kind];
  }
  const std::vector<double>& refresh_us() const { return refresh_us_; }
  std::uint64_t errors() const { return errors_; }

 private:
  std::optional<Json> latest_throughput() {
    if (system_.serving()) {
      return system_.store_server().latest_value(kThroughputIndex,
                                                 "throughput_bps");
    }
    std::optional<Json> value;
    ps::ArchiverQuery newest;
    newest.limit = 1;
    newest.newest_first = true;
    system_.psonar().archiver().for_each(
        kThroughputIndex, newest, [&](const Json& doc) {
          value = ps::Archiver::field_at(doc, "throughput_bps");
          return false;
        });
    return value;
  }
  std::vector<Json> search(const char* index, const ps::ArchiverQuery& q) {
    if (system_.serving()) return system_.store_server().search(index, q);
    return system_.psonar().archiver().search(index, q);
  }
  ps::ArchiverAggregation aggregate(const char* index, const char* field,
                                    const ps::ArchiverQuery& q) {
    if (system_.serving()) {
      return system_.store_server().aggregate(index, field, q);
    }
    return system_.psonar().archiver().aggregate(index, field, q);
  }

  core::MonitoringSystem& system_;
  Tracer* tracer_;
  std::array<std::vector<double>, kKinds> latency_us_;
  std::vector<double> refresh_us_;
  std::uint64_t errors_ = 0;
};

/// One built workload: the system, the bench's seams and timers. The
/// constructor is the timed set-up (config parse through the last
/// transfer added).
class Run {
 public:
  Run(const Workload& w, const ScenarioOptions& scenario, Tracer* tracer)
      : workload_(w),
        horizon_(units::seconds_f(scenario.horizon_s)),
        tracer_(tracer) {
    const std::string text = config_text(w, scenario);
    const auto t0 = Clock::now();
    system_ = std::make_unique<core::MonitoringSystem>(
        core::config_from_text(text));
    auto& system = *system_;
    auto& archiver = system.psonar().archiver();
    // The archive seam: a fresh backend of the configured kind behind
    // the bench's wrapper, swapped in while the archive is still empty.
    std::unique_ptr<ps::ArchiverBackend> inner;
    if (system.durable_archive()) {
      inner = std::make_unique<ps::StoreBackend>(system.archive_store());
    } else {
      inner = std::make_unique<ps::MemoryBackend>();
    }
    auto backend = std::make_unique<TimedBackend>(
        std::move(inner), system.simulation(), tracer_);
    backend_ = backend.get();
    archiver.set_backend(std::move(backend));
    if (tracer_ != nullptr) install_timed_seams();
    configure_reporting(w, system);
    system.start();
    add_traffic(w, scenario, system);
    schedule_bench_timers();
    setup_s_ = seconds_since(t0);
  }

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  double setup_s() const { return setup_s_; }
  core::MonitoringSystem& system() { return *system_; }
  const TimedBackend& backend() const { return *backend_; }
  const Dashboard& dashboard() const { return *dashboard_; }
  const std::vector<std::unique_ptr<TimedProgram>>& programs() const {
    return programs_;
  }
  std::uint64_t backlog_max() const { return backlog_max_; }

 private:
  void install_timed_seams() {
    auto& system = *system_;
    for (const auto& site : system.monitored_switches()) {
      programs_.push_back(std::make_unique<TimedProgram>(
          site->program(), *tracer_, programs_.empty() ? kKeptFrames : 0));
      site->p4_switch().load_program(*programs_.back());
    }
    auto& logstash = system.psonar().logstash();
    cp::ReportSink* inner = nullptr;
    std::function<std::int64_t()> ordinal;
    if (system.resilient_transport()) {
      // Same call the constructor installs, inside a span.
      system.report_channel().set_receiver(
          [&logstash, tracer = tracer_](std::string_view chunk) {
            Tracer::Scope span(tracer, Tracer::Name::kLogstash);
            logstash.tcp_input(chunk);
          });
      inner = &system.report_sink();
      ordinal = [&sink = system.report_sink()] {
        return static_cast<std::int64_t>(sink.next_seq());
      };
    } else {
      wire_ = std::make_unique<TimedLogstashWire>(logstash, *tracer_);
      inner = wire_.get();
      ordinal = [n = std::int64_t{0}]() mutable { return n++; };
    }
    sink_ = std::make_unique<TimedSink>(*inner, *tracer_, std::move(ordinal));
    for (const auto& site : system.monitored_switches()) {
      site->control_plane().set_sink(sink_.get());
    }
  }

  void schedule_bench_timers() {
    auto& sim = system_->simulation();
    dashboard_ = std::make_unique<Dashboard>(*system_, tracer_);
    const SimTime period =
        units::seconds_f(workload_.dashboard_period_ms / 1e3);
    sim.every(period, period, [this, &sim] {
      if (sim.now() > horizon_) return false;
      dashboard_->refresh();
      return true;
    });
    if (system_->durable_archive()) {
      // The durable archive is maintained by the bench (its config sets
      // maintenance_interval_s 0), so each call gets a span.
      sim.every(units::seconds(1), units::seconds(1), [this] {
        Tracer::Scope span(tracer_, Tracer::Name::kMaintain);
        system_->archive_store().maintain();
        return true;
      });
    }
    if (tracer_ != nullptr && system_->resilient_transport()) {
      sim.every(units::milliseconds(100), units::milliseconds(100), [this] {
        backlog_max_ = std::max(backlog_max_,
                                system_->report_sink().health().queued);
        return true;
      });
    }
  }

  const Workload& workload_;
  SimTime horizon_;
  Tracer* tracer_;
  double setup_s_ = 0.0;
  std::uint64_t backlog_max_ = 0;
  // Seams before the system: the system (and its fabric workers) is
  // destroyed first, while everything it points at is still alive.
  std::vector<std::unique_ptr<TimedProgram>> programs_;
  std::unique_ptr<TimedLogstashWire> wire_;
  std::unique_ptr<TimedSink> sink_;
  std::unique_ptr<Dashboard> dashboard_;
  TimedBackend* backend_ = nullptr;  // owned by the archiver
  std::unique_ptr<core::MonitoringSystem> system_;
};

// ---- post-run replays (traced) -----------------------------------------

class NoopProgram final : public p4::P4Program {
 public:
  void ingress(p4::PacketContext& /*ctx*/) override {}
};

/// Wall ns per kept frame through a fresh P4 switch running `program`.
double replay_ns(const TimedProgram& kept, p4::P4Program& program) {
  sim::Simulation sim;
  p4::P4Switch sw(sim, "replay");
  sw.load_program(program);
  const auto& bytes = kept.bytes();
  const auto t0 = Clock::now();
  for (const auto& frame : kept.frames()) {
    if (frame.ts > sim.now()) sim.run_until(frame.ts);
    sw.on_mirrored_bytes(
        std::span<const std::uint8_t>(bytes.data() + frame.offset, frame.len),
        frame.port == p4::P4Switch::kIngressTapPort ? net::MirrorPoint::kIngress
                                                   : net::MirrorPoint::kEgress,
        frame.len);
  }
  return seconds_since(t0) * 1e9 /
         static_cast<double>(std::max<std::size_t>(1, kept.frames().size()));
}

struct ReplayCosts {
  double parse_ns = 0.0;  // no-op program: parser + replay loop
  double vm_ns = 0.0;     // program VM with the shipped programs
};

/// Three interleaved rounds of the no-op, DataPlaneProgram and
/// DataPlaneProgram + ProgramVm replays; medians per kind.
ReplayCosts replay_costs(const TimedProgram& kept,
                         const telemetry::DataPlaneProgram::Config& config) {
  std::vector<mpl::Program> programs;
  const Json docs = shipped_programs();
  for (const Json& doc : docs.as_array()) {
    programs.push_back(mpl::compile_program(doc));
  }
  std::vector<double> noop, plain, with_vm;
  for (int round = 0; round < 3; ++round) {
    NoopProgram noop_program;
    noop.push_back(replay_ns(kept, noop_program));
    telemetry::DataPlaneProgram plain_program(config);
    plain.push_back(replay_ns(kept, plain_program));
    telemetry::DataPlaneProgram vm_program(config);
    mpl::ProgramVm vm;
    vm_program.register_packet_engine(vm);
    for (const auto& program : programs) vm.install(program);
    with_vm.push_back(replay_ns(kept, vm_program));
  }
  return {median(noop), median(with_vm) - median(plain)};
}

// ---- trace file ----------------------------------------------------------

void write_trace(const std::string& path, const Workload& w,
                 std::uint64_t seed, const Tracer& tracer, const Run& run,
                 const Json& layers) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("e2e: cannot write " + path);
  std::fprintf(out,
               "{\"workload\": \"%s\", \"seed\": %llu,\n"
               " \"clock\": \"steady_clock ns since set-up began\",\n"
               " \"spans\": [\n",
               w.name, static_cast<unsigned long long>(seed));
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"start\": %lld, \"end\": %lld, "
                 "\"parent\": %lld, \"thread\": %u, \"ordinal\": %lld}%s\n",
                 Tracer::name(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent), s.thread,
                 static_cast<long long>(s.ordinal),
                 i + 1 < spans.size() ? "," : "");
  }
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  sketch::DdSketch sketch(run.programs().front()->sketch().config());
  for (const auto& p : run.programs()) {
    count += p->count();
    sum += p->sum_ns();
    sketch.merge(p->sketch());
  }
  std::fprintf(out,
               " ],\n \"copies\": {\"count\": %llu, \"sum_ns\": %lld, "
               "\"p50_ns\": %.1f, \"p99_ns\": %.1f, \"sample_every\": %llu,\n"
               "  \"samples\": [\n",
               static_cast<unsigned long long>(count),
               static_cast<long long>(sum), sketch.quantile(0.5),
               sketch.quantile(0.99),
               static_cast<unsigned long long>(TimedProgram::kSampleEvery));
  bool first = true;
  for (std::size_t site = 0; site < run.programs().size(); ++site) {
    for (const auto& s : run.programs()[site]->samples()) {
      std::fprintf(out,
                   "%s   {\"name\": \"copy\", \"site\": %zu, \"start\": %lld, "
                   "\"end\": %lld, \"thread\": %u}",
                   first ? "" : ",\n", site,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.thread);
      first = false;
    }
  }
  std::fprintf(out, "\n  ]},\n \"layers\": %s\n}\n", layers.dump(1).c_str());
  if (std::fclose(out) != 0) {
    throw std::runtime_error("e2e: cannot write " + path);
  }
}

}  // namespace

Json run_rep(const RepOptions& options) {
  namespace fs = std::filesystem;
  const Workload& w = *options.workload;
  ScenarioOptions scenario;
  scenario.seed = options.seed;
  scenario.horizon_s = options.quick ? w.quick_horizon_s : w.horizon_s;
  scenario.parallel = options.parallel;
  const std::string store_base =
      options.out_dir + "/store-" + std::to_string(getpid());
  const SimTime horizon = units::seconds_f(scenario.horizon_s);

  scenario.store_dir = store_base;
  fs::remove_all(scenario.store_dir);
  std::unique_ptr<Tracer> tracer;
  if (options.traced) tracer = std::make_unique<Tracer>();
  auto run_ptr = std::make_unique<Run>(w, scenario, tracer.get());
  Run& run = *run_ptr;
  Json setups = Json::array();
  setups.as_array().push_back(run.setup_s());
  if (options.setup_only) {
    run_ptr.reset();
    fs::remove_all(store_base);
    Json result = Json::object();
    result["setup_s"] = setups;
    return result;
  }
  auto& system = run.system();
  auto& events = system.simulation().events();

  const std::uint64_t events_before = events.executed_events();
  const double cpu_before = process_cpu_s();
  const std::int64_t run_start_ns = tracer ? tracer->now_ns() : 0;
  // The run in timed steps of step_s simulated seconds; run_until ends
  // each step at the same state a single run_until(horizon) passes
  // through.
  Json step_wall_s = Json::array();
  const SimTime step = units::seconds_f(w.step_s);
  const auto t0 = Clock::now();
  for (SimTime until = 0; until < horizon;) {
    until = std::min(horizon, until + step);
    const auto step_t0 = Clock::now();
    system.run_until(until);
    step_wall_s.as_array().push_back(seconds_since(step_t0));
  }
  const double run_wall_s = seconds_since(t0);
  const std::int64_t run_end_ns = tracer ? tracer->now_ns() : 0;
  const double cpu_s = process_cpu_s() - cpu_before;
  const std::uint64_t sim_events = events.executed_events() - events_before;

  std::vector<std::string> errors;
  const auto at_horizon = system.fabric_stats();
  // Every copy mirrored by the horizon reaches its P4 parser one TAP
  // latency later: processed + rejected then equals mirrored, exactly.
  system.run_until(horizon + system.config().tap_latency);
  const auto after_latency = system.fabric_stats();
  if (after_latency.processed + after_latency.parse_errors !=
      at_horizon.mirrored) {
    errors.push_back("copies: mirrored " + std::to_string(at_horizon.mirrored) +
                     " != processed + rejected one TAP latency later " +
                     std::to_string(after_latency.processed +
                                    after_latency.parse_errors));
  }

  // Untimed drain of the report transport (capped at 10 s simulated).
  if (system.resilient_transport()) {
    const SimTime cap = system.simulation().now() + units::seconds(10);
    while (system.report_sink().health().queued > 0 &&
           system.simulation().now() < cap) {
      system.run_until(system.simulation().now() + units::milliseconds(10));
    }
  }

  auto& archiver = system.psonar().archiver();
  auto& logstash = system.psonar().logstash();
  const auto final_stats = system.fabric_stats();
  const std::uint64_t archived = archiver.total_docs();
  std::uint64_t emitted = final_stats.reports_emitted;
  std::uint64_t dropped = 0;
  std::uint64_t queued = 0;
  std::uint64_t retried = 0;
  if (system.resilient_transport()) {
    const auto& health = system.report_sink().health();
    emitted += health.health_reports;
    dropped = health.dropped_overflow;
    queued = health.queued;
    retried = health.retried;
    if (health.emitted != emitted || health.acked != archived) {
      errors.push_back("transport: sink emitted/acked disagree with the "
                       "control planes and the archive");
    }
  }
  if (emitted != archived + dropped + queued) {
    errors.push_back("reports: emitted " + std::to_string(emitted) +
                     " != archived + dropped + queued " +
                     std::to_string(archived + dropped + queued));
  }

  Fnv1a digest;
  std::vector<std::string> names = archiver.indices();
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    digest.add(name);
    digest.add("\n");
    archiver.for_each(name, {}, [&](const Json& doc) {
      digest.add(doc.dump());
      digest.add("\n");
      return true;
    });
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest.value()));

  std::vector<double> freshness_ms;
  for (const SimTime ns : run.backend().freshness_ns()) {
    freshness_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  const std::vector<double>& query_us = run.dashboard().refresh_us();

  Json failed = Json::object();
  failed["parse_errors"] = at_horizon.parse_errors;
  failed["transport_dropped"] = dropped;
  failed["transport_queued_after_drain"] = queued;
  failed["logstash_parse_failures"] = logstash.parse_failures();
  failed["logstash_events_dropped"] = logstash.events_dropped();
  failed["query_errors"] = run.dashboard().errors();
  std::uint64_t failed_total = 0;
  for (const auto& [key, value] : failed.as_object()) {
    failed_total += static_cast<std::uint64_t>(value.as_int());
  }

  Json result = Json::object();
  result["workload"] = w.name;
  result["seed"] = options.seed;
  result["traced"] = options.traced;
  result["parallel"] = system.parallel_fabric()
                           ? system.fabric_executor().worker_count()
                           : std::size_t{1};
  result["setup_s"] = setups;
  result["run_wall_s"] = run_wall_s;
  result["sim_s"] = scenario.horizon_s;
  result["step_wall_s"] = step_wall_s;
  result["events"] = sim_events;
  result["mirrored"] = at_horizon.mirrored;
  result["processed"] = at_horizon.processed;
  result["in_flight"] =
      at_horizon.mirrored - at_horizon.processed - at_horizon.parse_errors;
  result["reports_emitted"] = emitted;
  result["archived"] = archived;
  result["attempted"] = at_horizon.mirrored + emitted;
  result["failed"] = failed_total;
  result["failures"] = failed;
  result["freshness_p50_ms"] = median(freshness_ms);
  result["freshness_max_ms"] =
      freshness_ms.empty()
          ? 0.0
          : *std::max_element(freshness_ms.begin(), freshness_ms.end());
  result["freshness_n"] = freshness_ms.size();
  result["refreshes"] = query_us.size();
  result["query_p50_us"] = percentile(query_us, 0.50);
  result["query_p99_us"] = percentile(query_us, 0.99);
  result["digest"] = std::string(digest_hex);

  if (tracer) {
    const double run_ns = run_wall_s * 1e9;
    // Main-thread span time by name: total, and self (minus children).
    std::array<double, Tracer::kNames> total{}, self{};
    std::array<std::uint64_t, Tracer::kNames> count{};
    double top_level_ns = 0.0;
    const auto& spans = tracer->spans();
    for (const auto& s : spans) {
      const auto d = static_cast<double>(s.end_ns - s.start_ns);
      const auto n = static_cast<std::size_t>(s.name);
      total[n] += d;
      self[n] += d;
      ++count[n];
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(spans[s.parent].name)] -= d;
      } else if (s.start_ns >= run_start_ns && s.end_ns <= run_end_ns) {
        top_level_ns += d;
      }
    }
    auto per = [&](Tracer::Name name, double scale, double denom) {
      const auto n = static_cast<std::size_t>(name);
      return denom > 0 ? self[n] / scale / denom : 0.0;
    };
    std::uint64_t copies = 0;
    double copy_ns = 0.0;
    for (const auto& p : run.programs()) {
      copies += p->count();
      copy_ns += static_cast<double>(p->sum_ns());
    }
    const bool parallel = system.parallel_fabric();
    const double pipeline_threads =
        parallel ? static_cast<double>(system.fabric_executor().worker_count())
                 : 1.0;
    std::uint64_t cache_hits = 0;
    for (const auto& site : system.monitored_switches()) {
      cache_hits += site->taps().serialize_cache_hits();
    }
    const ReplayCosts replay =
        replay_costs(*run.programs().front(), system.config().program);
    const auto& dash = run.dashboard();

    Json layers = Json::object();
    layers["sim.events"] = sim_events;
    layers["sim.peak_heap_events"] =
        static_cast<std::uint64_t>(events.peak_pending_events());
    layers["sim.other_ns_per_event"] =
        (run_ns - top_level_ns - (parallel ? 0.0 : copy_ns)) /
        static_cast<double>(std::max<std::uint64_t>(1, sim_events));
    layers["net.tap_copies"] = at_horizon.mirrored;
    layers["net.tap_cache_hit_ratio"] =
        static_cast<double>(cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(1, at_horizon.mirrored));
    layers["p4.parse_ns_per_copy"] = replay.parse_ns;
    layers["p4.parse_errors"] = at_horizon.parse_errors;
    layers["telemetry.ingress_ns_per_copy"] =
        copy_ns / static_cast<double>(std::max<std::uint64_t>(1, copies));
    layers["telemetry.ingress_share"] = copy_ns / run_ns;
    layers["mpl.vm_ns_per_copy"] = replay.vm_ns;
    layers["controlplane.reports"] = final_stats.reports_emitted;
    layers["controlplane.sink_us_per_report"] =
        per(Tracer::Name::kReport, 1e3,
            static_cast<double>(count[static_cast<int>(Tracer::Name::kReport)]));
    layers["psonar.logstash_us_per_doc"] =
        per(Tracer::Name::kLogstash, 1e3, static_cast<double>(archived));
    layers["psonar.index_us_per_doc"] =
        per(Tracer::Name::kIndex, 1e3,
            static_cast<double>(count[static_cast<int>(Tracer::Name::kIndex)]));
    layers["psonar.transport_backlog_max"] = run.backlog_max();
    layers["psonar.transport_retried"] = retried;
    layers["store.maintain_ms_per_call"] =
        per(Tracer::Name::kMaintain, 1e6,
            static_cast<double>(
                count[static_cast<int>(Tracer::Name::kMaintain)]));
    store::StoreStats store_stats;
    if (system.durable_archive()) store_stats = system.archive_store().stats();
    layers["store.seals"] = store_stats.seals;
    layers["store.compactions"] = store_stats.compactions;
    layers["store.prune_ratio"] =
        static_cast<double>(store_stats.segments_pruned_range +
                            store_stats.segments_pruned_terms +
                            store_stats.segments_pruned_postings) /
        static_cast<double>(
            std::max<std::uint64_t>(1, store_stats.segments_considered));
    layers["store.cache_hit_ratio"] =
        static_cast<double>(store_stats.cache_hits) /
        static_cast<double>(std::max<std::uint64_t>(
            1, store_stats.cache_hits + store_stats.cache_misses));
    for (int k = 0; k < Dashboard::kKinds; ++k) {
      const auto kind = static_cast<Dashboard::Kind>(k);
      layers[std::string("serving.") + Dashboard::kKindName[k] + "_us_p50"] =
          median(dash.latency_us(kind));
    }
    layers["core.fabric_worker_busy_share"] =
        copy_ns / (run_ns * pipeline_threads);
    layers["core.fabric_cpu_per_wall"] = cpu_s / run_wall_s;
    layers["core.fabric_barrier_waits"] = final_stats.barrier_waits;
    layers["core.fabric_blocked_pushes"] = final_stats.blocked_pushes;
    result["layers"] = layers;

    const std::string path =
        options.out_dir + "/TRACE_" + std::string(w.name) + ".json";
    write_trace(path, w, options.seed, *tracer, run, layers);
    std::fprintf(stderr, "e2e: wrote %s\n", path.c_str());
  }

  result["errors"] = Json::array();
  for (const auto& e : errors) result["errors"].as_array().push_back(e);
  run_ptr.reset();
  fs::remove_all(store_base);
  result["rss_mb"] = peak_rss_mb();
  return result;
}

}  // namespace p4s::e2e
