// e2e — the end-to-end benchmark: the whole chain from TCP segment
// through TAP, P4 parser, telemetry engines, control plane, Report_v1
// transport, Logstash and archive, to the dashboard query that reads the
// document back, on four workloads (workloads.cpp says why each).
//
//   e2e [--reps N] [--seed N] [--quick] [--out-dir DIR]
//       One warm-up rep per workload, then N interleaved reps (fig9,
//       fabric16, mice_archive, engines_quic, fig9, ...), then one traced
//       rep per workload (plus fabric16's serial rerun). Prints every
//       metric with its unit and sample count, checks the outputs, and
//       writes BENCH_e2e.json and TRACE_<workload>.json. Exits non-zero
//       when a check fails. --quick: short horizons, one rep, no warm-up.
//   e2e --compare BASE.json NEW.json
//       One row per workload x end-to-end metric: both medians and
//       quartiles, the delta, the bound and a verdict (better / same /
//       worse / unresolved). Exits non-zero on any "worse".
//   e2e --workload W --seed N --seconds S --trace 0|1 [--out-dir DIR]
//       One workload: reps for about S seconds (--trace 0) or one traced
//       rep and its baselines (--trace 1); the last stdout line is
//       {"correct", "attempted", "failed", "metrics"} with the end-to-end
//       metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// Every rep runs in a fresh child process (`e2e --rep ...`, rep.hpp).
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "rep.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace p4s;
using namespace p4s::e2e;
using util::Json;

// ---- metric tables ---------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  bool lower_is_better;
  /// Regression bound as a share of the base median; an absolute floor
  /// (in the metric's unit) applies where noise is larger than a share.
  double bound;
  double bound_abs;
  /// Listed in BENCHMARK.json and printed by --workload. The others are
  /// exact in a seeded run (bound 0, enforced as checks there) or spread
  /// wider between runs on a shared host than any bound that file allows
  /// (query_*; README.md has the measured spreads).
  bool in_benchmark_json;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s", true, 0.25, 0.005, true},
    {"wall_per_sim_s", "s/s", true, 0.24, 0.0, true},
    {"copies_per_s", "copies/s", false, 0.24, 0.0, true},
    {"peak_rss_mb", "MB", true, 0.10, 0.0, true},
    {"failed_ratio", "fraction", true, 0.0, 0.0, false},
    {"freshness_p50_ms", "sim_ms", true, 0.0, 0.0, false},
    {"freshness_max_ms", "sim_ms", true, 0.0, 0.0, false},
    {"query_p50_us", "us", true, 0.25, 0.0, false},
    {"query_p99_us", "us", true, 0.25, 0.0, false},
};

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Named by src/ module; README.md maps each to the end-to-end metric and
// workload it should move. BENCHMARK.json's per_layer lists the same.
constexpr LayerMetric kLayers[] = {
    {"sim.events", "count"},
    {"sim.peak_heap_events", "count"},
    {"sim.other_ns_per_event", "ns"},
    {"net.tap_copies", "count"},
    {"net.tap_cache_hit_ratio", "ratio"},
    {"p4.parse_ns_per_copy", "ns"},
    {"p4.parse_errors", "count"},
    {"telemetry.ingress_ns_per_copy", "ns"},
    {"telemetry.ingress_share", "ratio"},
    {"mpl.vm_ns_per_copy", "ns"},
    {"controlplane.reports", "count"},
    {"controlplane.sink_us_per_report", "us"},
    {"psonar.logstash_us_per_doc", "us"},
    {"psonar.index_us_per_doc", "us"},
    {"psonar.transport_backlog_max", "count"},
    {"psonar.transport_retried", "count"},
    {"store.maintain_ms_per_call", "ms"},
    {"store.seals", "count"},
    {"store.compactions", "count"},
    {"store.prune_ratio", "ratio"},
    {"store.cache_hit_ratio", "ratio"},
    {"serving.latest_us_p50", "us"},
    {"serving.range_us_p50", "us"},
    {"serving.agg_us_p50", "us"},
    {"serving.term_us_p50", "us"},
    {"core.fabric_worker_busy_share", "ratio"},
    {"core.fabric_cpu_per_wall", "ratio"},
    {"core.fabric_barrier_waits", "count"},
    {"core.fabric_blocked_pushes", "count"},
    {"core.fabric_parallel_speedup", "x"},
    {"core.fabric_stalled_reps", "count"},
    {"trace.overhead_pct", "%"},
};

// ---- child reps ------------------------------------------------------------

/// A child that used no CPU for this long is blocked for good: a live rep
/// always has its simulation thread running.
constexpr double kStallSeconds = 5.0;
/// Stalled children killed and rerun, over all workloads, before e2e
/// gives up.
constexpr std::size_t kMaxStalls = 3;
/// Stalled children so far, by workload (core.fabric_stalled_reps).
std::map<std::string, std::size_t> g_stalled_reps;

/// User + system CPU ticks of all of a live child's threads; -1 once the
/// child is gone.
long long cpu_ticks(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1;
  // After the command name: state, then 10 fields, then utime and stime.
  std::istringstream fields(text.substr(close + 1));
  std::string skip;
  for (int i = 0; i < 11; ++i) fields >> skip;
  long long utime = 0;
  long long stime = 0;
  fields >> utime >> stime;
  return fields ? utime + stime : -1;
}

/// Thrown for a child killed for stalling.
struct Stalled {
  pid_t pid;
};

/// Runs `e2e --rep ...` once and returns its stdout; its stderr passes
/// through. Kills the child and throws Stalled when it stops using CPU
/// for kStallSeconds, and throws when it fails.
std::string run_child(const std::vector<std::string>& args) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("e2e: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    throw std::runtime_error("e2e: cannot start " + args[0]);
  }

  std::string output;
  bool stalled = false;
  long long ticks = cpu_ticks(pid);
  auto last_progress = std::chrono::steady_clock::now();
  for (;;) {
    pollfd pfd{fds[0], POLLIN, 0};
    if (poll(&pfd, 1, 500) > 0) {
      char buf[4096];
      const ssize_t n = read(fds[0], buf, sizeof buf);
      if (n > 0) {
        output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || errno != EINTR) break;  // end of output
    }
    const long long now_ticks = cpu_ticks(pid);
    const auto now = std::chrono::steady_clock::now();
    if (now_ticks != ticks) {
      ticks = now_ticks;
      last_progress = now;
    } else if (std::chrono::duration<double>(now - last_progress).count() >
               kStallSeconds) {
      stalled = true;
      kill(pid, SIGKILL);
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (stalled) throw Stalled{pid};
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("e2e: rep exited with status " +
                             std::to_string(status));
  }
  return output;
}

/// Runs `e2e --rep ...` in a child process and returns the result
/// document it prints last. A child that stalls is killed and run again,
/// at most kMaxStalls times per e2e run.
Json spawn(const std::string& self, const RepOptions& r) {
  std::vector<std::string> args = {self,   "--rep",     r.workload->name,
                                   "--seed", std::to_string(r.seed),
                                   "--out-dir", r.out_dir};
  if (r.quick) args.push_back("--quick");
  if (r.traced) args.push_back("--traced");
  if (r.parallel != 0) {
    args.push_back("--parallel");
    args.push_back(std::to_string(r.parallel));
  }
  if (r.setup_only) args.push_back("--setup-only");
  for (;;) {
    std::string output;
    try {
      output = run_child(args);
    } catch (const Stalled& stalled) {
      // The store directory the killed rep could not remove (rep.cpp).
      std::filesystem::remove_all(r.out_dir + "/store-" +
                                  std::to_string(stalled.pid));
      ++g_stalled_reps[r.workload->name];
      std::size_t total = 0;
      for (const auto& [name, n] : g_stalled_reps) total += n;
      std::fprintf(stderr,
                   "e2e: %s: a rep used no CPU for %.0f s: killed and run "
                   "again (stall %zu; e2e gives up at %zu)\n",
                   r.workload->name, kStallSeconds, total, kMaxStalls);
      if (total >= kMaxStalls) {
        throw std::runtime_error("e2e: too many stalled reps");
      }
      continue;
    }
    while (!output.empty() && output.back() == '\n') output.pop_back();
    const auto last = output.rfind('\n');
    return Json::parse(last == std::string::npos ? output
                                                 : output.substr(last + 1));
  }
}

/// One rep, preceded by `extra_setups` set-up-only children that each
/// add a setup_s sample to it.
Json spawn_rep(const std::string& self, RepOptions r,
               std::size_t extra_setups = 0) {
  r.setup_only = true;
  std::vector<Json> setups;
  for (std::size_t i = 0; i < extra_setups; ++i) {
    setups.push_back(spawn(self, r).at("setup_s").as_array().front());
  }
  r.setup_only = false;
  Json rep = spawn(self, r);
  for (const Json& s : setups) rep["setup_s"].as_array().push_back(s);
  return rep;
}

// ---- aggregation -------------------------------------------------------------

/// A rep's run wall with each step's wall replaced by the median of the
/// five steps around it (fewer at either end). One or two steps in which
/// the host stalled the process do not count; a trend across steps (the
/// growing store of mice_archive) does.
double smoothed_run_wall_s(const Json& rep) {
  std::vector<double> walls;
  for (const Json& w : rep.at("step_wall_s").as_array()) {
    walls.push_back(w.as_double());
  }
  double total = 0.0;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    const std::size_t from = i >= 2 ? i - 2 : 0;
    const std::size_t to = std::min(walls.size(), i + 3);
    total += median(
        std::vector<double>(walls.begin() + from, walls.begin() + to));
  }
  return total;
}

/// A rep's value of an end-to-end metric.
double rep_value(const Json& rep, const char* metric) {
  const std::string m = metric;
  if (m == "setup_s") {
    std::vector<double> setups;
    for (const Json& s : rep.at("setup_s").as_array()) {
      setups.push_back(s.as_double());
    }
    return median(setups);
  }
  if (m == "wall_per_sim_s") {
    return smoothed_run_wall_s(rep) / rep.at("sim_s").as_double();
  }
  if (m == "copies_per_s") {
    return rep.at("processed").as_double() / smoothed_run_wall_s(rep);
  }
  if (m == "peak_rss_mb") return rep.at("rss_mb").as_double();
  if (m == "failed_ratio") {
    return rep.at("failed").as_double() / rep.at("attempted").as_double();
  }
  return rep.at(m).as_double();
}

Json summary(const std::vector<double>& values, const char* unit) {
  const auto q = quartiles(values);
  Json s = Json::object();
  s["median"] = median(values);
  s["q1"] = q[0];
  s["q3"] = q[1];
  s["n"] = values.size();
  s["unit"] = unit;
  Json all = Json::array();
  for (const double v : values) all.as_array().push_back(v);
  s["values"] = all;
  return s;
}

/// Everything e2e knows about one workload after its reps ran.
struct WorkloadRuns {
  const Workload* workload = nullptr;
  std::vector<Json> reps;       // measured, untraced
  std::optional<Json> traced;   // the traced rep
  std::optional<Json> serial;   // fabric16's serial rerun
  /// The parallel rep the serial rerun is compared with when the two are
  /// short (--quick) reps; without it, the serial rerun is a full rep and
  /// is compared with `reps`.
  std::optional<Json> serial_base;
  std::vector<std::string> errors;

  /// Conservation checks from every rep, plus determinism: one archive
  /// digest across reps, the traced rep and the serial rerun, and one
  /// freshness series across reps.
  void check() {
    std::vector<const Json*> all;  // full reps: one digest across them
    for (const Json& r : reps) all.push_back(&r);
    if (traced) all.push_back(&*traced);
    if (serial && !serial_base) all.push_back(&*serial);
    std::vector<const Json*> checked = all;
    if (serial_base) {
      checked.push_back(&*serial);
      checked.push_back(&*serial_base);
    }
    for (const Json* r : checked) {
      for (const Json& e : r->at("errors").as_array()) {
        errors.push_back(e.as_string());
      }
    }
    if (serial_base && serial->at("digest") != serial_base->at("digest")) {
      errors.push_back("determinism: archive digest of the serial rerun " +
                       serial->at("digest").as_string() + " != parallel " +
                       serial_base->at("digest").as_string());
    }
    if (all.empty()) return;
    const Json& first = *all.front();
    for (const Json* r : all) {
      if (r->at("digest") != first.at("digest")) {
        errors.push_back(std::string("determinism: archive digest ") +
                         r->at("digest").as_string() + " != " +
                         first.at("digest").as_string() +
                         (r->at("traced").as_bool() ? " (traced rep)" : "") +
                         (r->at("parallel").as_int() == 1 && serial
                              ? " (serial rerun)"
                              : ""));
      }
      for (const char* key : {"freshness_p50_ms", "freshness_max_ms",
                              "failed", "attempted"}) {
        if (r->at(key) != first.at(key)) {
          errors.push_back(std::string("determinism: ") + key +
                           " differs between reps of " + workload->name);
        }
      }
    }
  }

  Json end_to_end() const {
    Json out = Json::object();
    for (const Metric& m : kEndToEnd) {
      std::vector<double> values;
      for (const Json& r : reps) values.push_back(rep_value(r, m.name));
      out[m.name] = summary(values, m.unit);
    }
    return out;
  }

  /// Per-layer metrics of the traced rep, plus those taken across reps:
  /// the speedup, the stalled reps and the tracing overhead.
  Json layers() const {
    Json out = traced ? traced->at("layers") : Json::object();
    std::vector<double> walls;
    for (const Json& r : reps) walls.push_back(r.at("run_wall_s").as_double());
    const double untraced = median(walls);
    const double parallel_wall =
        serial_base ? serial_base->at("run_wall_s").as_double() : untraced;
    out["core.fabric_parallel_speedup"] =
        serial ? serial->at("run_wall_s").as_double() / parallel_wall : 1.0;
    const auto stalls = g_stalled_reps.find(workload->name);
    out["core.fabric_stalled_reps"] =
        stalls == g_stalled_reps.end() ? std::size_t{0} : stalls->second;
    out["trace.overhead_pct"] =
        traced ? (traced->at("run_wall_s").as_double() / untraced - 1.0) * 100
               : 0.0;
    return out;
  }

  std::uint64_t sum(const char* key) const {
    std::uint64_t total = 0;
    for (const Json& r : reps) total += static_cast<std::uint64_t>(r.at(key).as_int());
    return total;
  }
};

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

Json provenance(std::size_t reps, std::uint64_t seed, bool quick) {
  Json meta = Json::object();
  meta["commit"] = P4S_COMMIT;
  meta["build_type"] = P4S_BUILD_TYPE;
  meta["compiler"] = compiler();
  meta["hardware_concurrency"] =
      static_cast<std::int64_t>(std::thread::hardware_concurrency());
  meta["reps"] = reps;
  meta["warmup_reps"] = quick ? 0 : 1;
  meta["seed"] = seed;
  meta["quick"] = quick;
  return meta;
}

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- modes ---------------------------------------------------------------------

struct Options {
  std::string self;
  std::string out_dir = ".";
  std::uint64_t seed = 1;
  std::size_t reps = 5;
  bool quick = false;
};

/// Set-up-only children per measured rep (10 setup_s samples a rep).
constexpr std::size_t kExtraSetups = 9;

int run_all(const Options& opt) {
  std::vector<WorkloadRuns> runs(workloads().size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    runs[i].workload = &workloads()[i];
  }
  auto request = [&](const Workload& w) {
    RepOptions r;
    r.workload = &w;
    r.seed = opt.seed;
    r.quick = opt.quick;
    r.out_dir = opt.out_dir;
    return r;
  };
  if (!opt.quick) {
    for (const Workload& w : workloads()) {
      std::fprintf(stderr, "e2e: warm-up %s\n", w.name);
      RepOptions r = request(w);
      r.quick = true;
      spawn_rep(opt.self, r);
    }
  }
  const std::size_t reps = opt.quick ? 1 : opt.reps;
  for (std::size_t i = 0; i < reps; ++i) {
    for (auto& run : runs) {
      std::fprintf(stderr, "e2e: rep %zu/%zu %s\n", i + 1, reps,
                   run.workload->name);
      run.reps.push_back(
          spawn_rep(opt.self, request(*run.workload), kExtraSetups));
    }
  }
  for (auto& run : runs) {
    std::fprintf(stderr, "e2e: traced %s\n", run.workload->name);
    RepOptions r = request(*run.workload);
    r.traced = true;
    run.traced = spawn_rep(opt.self, r);
    if (run.reps.front().at("parallel").as_int() > 1) {
      std::fprintf(stderr, "e2e: serial rerun %s\n", run.workload->name);
      RepOptions serial = request(*run.workload);
      serial.parallel = 1;
      run.serial = spawn_rep(opt.self, serial);
    }
    run.check();
  }

  Json doc = Json::object();
  doc["schema"] = "p4s-e2e-v1";
  doc["meta"] = provenance(reps, opt.seed, opt.quick);
  Json spec = Json::array();
  for (const Metric& m : kEndToEnd) {
    Json s = Json::object();
    s["name"] = m.name;
    s["unit"] = m.unit;
    s["better"] = m.lower_is_better ? "lower" : "higher";
    s["bound"] = m.bound;
    s["bound_abs"] = m.bound_abs;
    spec.as_array().push_back(s);
  }
  doc["end_to_end_metrics"] = spec;
  Json per_workload = Json::object();
  bool correct = true;
  std::printf("%-13s %-30s %14s %14s %14s %-9s %s\n", "workload", "metric",
              "median", "q1", "q3", "unit", "n");
  for (const auto& run : runs) {
    Json entry = Json::object();
    entry["why"] = run.workload->why;
    entry["end_to_end"] = run.end_to_end();
    entry["layers"] = run.layers();
    entry["digest"] = run.reps.front().at("digest");
    entry["correct"] = run.errors.empty();
    Json errors = Json::array();
    for (const auto& e : run.errors) errors.as_array().push_back(e);
    entry["errors"] = errors;
    correct = correct && run.errors.empty();
    for (const Metric& m : kEndToEnd) {
      const Json& s = entry["end_to_end"].at(m.name);
      std::printf("%-13s %-30s %14.6g %14.6g %14.6g %-9s %lld\n",
                  run.workload->name, m.name, s.at("median").as_double(),
                  s.at("q1").as_double(), s.at("q3").as_double(), m.unit,
                  static_cast<long long>(s.at("n").as_int()));
    }
    for (const LayerMetric& m : kLayers) {
      std::printf("%-13s %-30s %14.6g %14s %14s %-9s %d\n", run.workload->name,
                  m.name, entry["layers"].at(m.name).as_double(), "", "",
                  m.unit, 1);
    }
    for (const auto& e : run.errors) {
      std::printf("%-13s CHECK FAILED: %s\n", run.workload->name, e.c_str());
    }
    per_workload[run.workload->name] = entry;
  }
  doc["workloads"] = per_workload;
  const std::string path = opt.out_dir + "/BENCH_e2e.json";
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "e2e: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nbench json: %s (%s)\n", path.c_str(),
              correct ? "all checks passed" : "CHECKS FAILED");
  return correct ? 0 : 1;
}

/// The --workload entry point. Both modes start with a short warm-up rep.
/// --trace 0: full reps while the next one is expected to end within
/// `seconds` of the start (a second one within twice that), and at least
/// one. --trace 1: one untraced and
/// one traced full rep; on a parallel workload also a short serial rep and
/// a short parallel rep, for the speedup and the serial-vs-parallel digest
/// check (a full serial rep would double the run).
int run_one(const Options& opt, const Workload& w, double seconds,
            bool trace) {
  const auto t0 = std::chrono::steady_clock::now();
  WorkloadRuns run;
  run.workload = &w;
  RepOptions r;
  r.workload = &w;
  r.seed = opt.seed;
  r.out_dir = opt.out_dir;
  RepOptions quick = r;
  quick.quick = true;
  const Json warmup = spawn_rep(opt.self, quick);
  if (trace) {
    if (warmup.at("parallel").as_int() > 1) {
      RepOptions serial = quick;
      serial.parallel = 1;
      run.serial = spawn_rep(opt.self, serial);
      run.serial_base = spawn_rep(opt.self, quick);
    }
    run.reps.push_back(spawn_rep(opt.self, r));
    RepOptions traced = r;
    traced.traced = true;
    run.traced = spawn_rep(opt.self, traced);
  } else {
    // Start another rep while it is expected to end within the budget
    // (the last rep's time predicts the next), and a second one up to
    // twice the budget: a run that kept one rep only because that rep was
    // slow would read slow.
    double last = 0.0;
    for (;;) {
      const double expected_end = elapsed_s(t0) + last;
      const double budget = run.reps.size() < 2 ? 2 * seconds : seconds;
      if (!run.reps.empty() && expected_end > budget) break;
      const auto rep_t0 = std::chrono::steady_clock::now();
      run.reps.push_back(spawn_rep(opt.self, r, kExtraSetups));
      last = elapsed_s(rep_t0);
    }
  }
  run.check();
  for (const auto& e : run.errors) {
    std::fprintf(stderr, "e2e: %s: CHECK FAILED: %s\n", w.name, e.c_str());
  }

  Json metrics = Json::object();
  if (trace) {
    const Json layers = run.layers();
    for (const LayerMetric& m : kLayers) {
      Json v = Json::object();
      v["value"] = layers.at(m.name);
      v["unit"] = m.unit;
      metrics[m.name] = v;
    }
  } else {
    const Json e2e = run.end_to_end();
    for (const Metric& m : kEndToEnd) {
      const Json& s = e2e.at(m.name);
      std::fprintf(stderr, "e2e: %s %s = %.6g %s (median of %lld)\n", w.name,
                   m.name, s.at("median").as_double(), m.unit,
                   static_cast<long long>(s.at("n").as_int()));
      if (!m.in_benchmark_json) continue;
      Json v = Json::object();
      v["value"] = s.at("median");
      v["unit"] = m.unit;
      metrics[m.name] = v;
    }
  }
  Json line = Json::object();
  line["correct"] = run.errors.empty();
  line["attempted"] = run.sum("attempted");
  line["failed"] = run.sum("failed");
  line["metrics"] = metrics;
  std::printf("%s\n", line.dump().c_str());
  return run.errors.empty() ? 0 : 1;
}

// ---- --compare ----------------------------------------------------------------

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("e2e: cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

int compare(const std::string& base_path, const std::string& new_path) {
  const Json base = load(base_path);
  const Json next = load(new_path);
  bool any_worse = false;
  std::printf("%-13s %-17s %26s %26s %9s %7s  %s\n", "workload", "metric",
              "base median [q1, q3]", "new median [q1, q3]", "delta",
              "bound", "verdict");
  for (const Workload& w : workloads()) {
    if (!base.at("workloads").contains(w.name) ||
        !next.at("workloads").contains(w.name)) {
      continue;
    }
    const Json& b_all = base.at("workloads").at(w.name).at("end_to_end");
    const Json& n_all = next.at("workloads").at(w.name).at("end_to_end");
    for (const Metric& m : kEndToEnd) {
      const Json& b = b_all.at(m.name);
      const Json& n = n_all.at(m.name);
      const double bm = b.at("median").as_double();
      const double nm = n.at("median").as_double();
      const double sign = m.lower_is_better ? 1.0 : -1.0;
      const double allowed =
          bm != 0.0 ? std::max(m.bound, m.bound_abs / std::abs(bm)) : 0.0;
      double worse_by = 0.0;  // share of the base median, > 0 = worse
      if (bm != 0.0) {
        worse_by = sign * (nm - bm) / std::abs(bm);
      } else if (nm != bm) {
        worse_by = sign * (nm > bm ? 1.0 : -1.0) *
                   std::numeric_limits<double>::infinity();
      }
      auto spread = [](const Json& s) {
        const double med = s.at("median").as_double();
        return med != 0.0 ? (s.at("q3").as_double() - s.at("q1").as_double()) /
                                std::abs(med)
                          : 0.0;
      };
      const double widest = std::max(spread(b), spread(n));
      std::string verdict;
      if (widest > allowed) {
        // Only a clean separation resolves a noisy row.
        bool all_better = true;
        for (const Json& nv : n.at("values").as_array()) {
          for (const Json& bv : b.at("values").as_array()) {
            all_better = all_better &&
                         sign * (nv.as_double() - bv.as_double()) < 0.0;
          }
        }
        verdict = all_better ? "better" : "unresolved";
      } else if (worse_by > allowed) {
        verdict = "worse";
      } else if (worse_by < -allowed) {
        verdict = "better";
      } else {
        verdict = "same";
      }
      any_worse = any_worse || verdict == "worse";
      char b_text[64], n_text[64];
      std::snprintf(b_text, sizeof b_text, "%.4g [%.4g, %.4g]", bm,
                    b.at("q1").as_double(), b.at("q3").as_double());
      std::snprintf(n_text, sizeof n_text, "%.4g [%.4g, %.4g]", nm,
                    n.at("q1").as_double(), n.at("q3").as_double());
      std::printf("%-13s %-17s %26s %26s %+8.2f%% %6.1f%%  %s\n", w.name,
                  m.name, b_text, n_text,
                  bm != 0.0 ? (nm - bm) / std::abs(bm) * 100 : 0.0,
                  allowed * 100, verdict.c_str());
    }
  }
  return any_worse ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e [--reps N] [--seed N] [--quick] [--out-dir DIR]\n"
               "       e2e --compare BASE.json NEW.json\n"
               "       e2e --workload W --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::error_code no_proc;
  opt.self = std::filesystem::read_symlink("/proc/self/exe", no_proc);
  if (no_proc) opt.self = argv[0];
  std::string rep_workload;
  std::string workload;
  double seconds = 0.0;
  int trace = -1;
  bool traced_rep = false;
  bool setup_only = false;
  std::size_t parallel = 0;
  std::vector<std::string> compare_paths;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      auto number = [&]() -> std::uint64_t {
        const std::string v = value();
        std::size_t used = 0;
        const auto n = std::stoull(v, &used);
        if (used != v.size()) throw std::invalid_argument("bad number " + v);
        return n;
      };
      if (arg == "--compare") {
        compare_paths.push_back(value());
        compare_paths.push_back(value());
      } else if (arg == "--reps") {
        opt.reps = number();
      } else if (arg == "--seed") {
        opt.seed = number();
      } else if (arg == "--quick") {
        opt.quick = true;
      } else if (arg == "--out-dir") {
        opt.out_dir = value();
      } else if (arg == "--workload") {
        workload = value();
      } else if (arg == "--seconds") {
        seconds = static_cast<double>(number());
      } else if (arg == "--trace") {
        trace = static_cast<int>(number());
      } else if (arg == "--rep") {
        rep_workload = value();
      } else if (arg == "--traced") {
        traced_rep = true;
      } else if (arg == "--parallel") {
        parallel = number();
      } else if (arg == "--setup-only") {
        setup_only = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return usage();
  }

  try {
    if (!compare_paths.empty()) {
      return compare(compare_paths[0], compare_paths[1]);
    }
    std::filesystem::create_directories(opt.out_dir);
    if (!rep_workload.empty()) {
      RepOptions rep;
      rep.workload = find_workload(rep_workload);
      if (rep.workload == nullptr) return usage();
      rep.seed = opt.seed;
      rep.quick = opt.quick;
      rep.traced = traced_rep;
      rep.parallel = parallel;
      rep.setup_only = setup_only;
      rep.out_dir = opt.out_dir;
      const Json result = run_rep(rep);
      std::printf("%s\n", result.dump().c_str());
      return 0;
    }
    if (!workload.empty()) {
      const Workload* w = find_workload(workload);
      if (w == nullptr || seconds <= 0 || (trace != 0 && trace != 1)) {
        return usage();
      }
      return run_one(opt, *w, seconds, trace == 1);
    }
    if (opt.reps == 0) return usage();
    return run_all(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 1;
  }
}
