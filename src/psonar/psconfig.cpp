#include "psonar/psconfig.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <sstream>

#include "mpl/compiler.hpp"
#include "mpl/vm.hpp"
#include "util/json_path.hpp"

namespace p4s::ps {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

std::optional<double> parse_number(const std::string& s) {
  double v = 0.0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || p != s.data() + s.size()) return std::nullopt;
  return v;
}

}  // namespace

PsConfig::Result PsConfig::execute(const std::string& command_line) {
  const auto tokens = tokenize(command_line);
  if (tokens.empty() || tokens[0] != "psconfig") {
    return {false, "usage: psconfig <command> [options]"};
  }
  if (tokens.size() < 2) {
    return {false, "psconfig: missing command"};
  }
  if (tokens[1] == "config-P4") {
    return run_config_p4({tokens.begin() + 2, tokens.end()}, command_line);
  }
  return {false, "psconfig: unknown command '" + tokens[1] + "'"};
}

PsConfig::Result PsConfig::run_config_p4(const std::vector<std::string>& args,
                                         const std::string& original) {
  if (planes_.empty()) {
    return {false, "config-P4: no switch control plane attached"};
  }

  std::optional<std::string> metric;
  std::optional<double> samples_per_second;
  std::optional<double> threshold;
  std::optional<std::string> switch_id;
  std::optional<std::string> install_file;
  std::optional<std::string> remove_name;
  bool alert = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next_value = [&]() -> std::optional<std::string> {
      if (i + 1 >= args.size()) return std::nullopt;
      return args[++i];
    };
    if (arg == "--metric") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --metric needs a value"};
      // Paper and extension metrics alike: resolution is deferred to
      // the targeted control plane, which knows its registered
      // extractors (a VM program's exported metric counts). Figure 6
      // spells the rtt metric "RTT".
      metric = *v == "RTT" ? "rtt" : *v;
    } else if (arg == "--install-program") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --install-program needs a file"};
      install_file = *v;
    } else if (arg == "--remove-program") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --remove-program needs a name"};
      remove_name = *v;
    } else if (arg == "--samples_per_second") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --samples_per_second needs a value"};
      samples_per_second = parse_number(*v);
      // std::from_chars happily parses "nan" and "inf" — both would arm a
      // broken timer downstream, so they are rejected here like any other
      // malformed rate.
      if (!samples_per_second || !std::isfinite(*samples_per_second) ||
          *samples_per_second <= 0.0) {
        return {false, "config-P4: bad samples_per_second '" + *v + "'"};
      }
    } else if (arg == "--threshold") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --threshold needs a value"};
      threshold = parse_number(*v);
      if (!threshold || !std::isfinite(*threshold) || *threshold < 0.0) {
        return {false, "config-P4: bad threshold '" + *v + "'"};
      }
    } else if (arg == "--switch") {
      auto v = next_value();
      if (!v) return {false, "config-P4: --switch needs a value"};
      switch_id = *v;
    } else if (arg == "--alert") {
      alert = true;
    } else {
      return {false, "config-P4: unknown option '" + arg + "'"};
    }
  }

  const bool program_action =
      install_file.has_value() || remove_name.has_value();
  if (program_action &&
      (metric.has_value() || alert || samples_per_second.has_value() ||
       threshold.has_value())) {
    return {false,
            "config-P4: --install-program/--remove-program cannot be "
            "combined with metric options"};
  }
  if (!program_action) {
    if (alert && !threshold.has_value()) {
      return {false, "config-P4: --alert requires --threshold"};
    }
    if (!alert && !samples_per_second.has_value()) {
      return {false,
              "config-P4: nothing to do (need --samples_per_second or "
              "--alert --threshold)"};
    }
  }

  // --switch targets one registered control plane by id or zero-based
  // index; the default is every registered switch.
  std::vector<Plane*> switches;
  if (switch_id.has_value()) {
    for (std::size_t i = 0; i < planes_.size(); ++i) {
      if (planes_[i].id == *switch_id ||
          std::to_string(i) == *switch_id) {
        switches.push_back(&planes_[i]);
        break;
      }
    }
    if (switches.empty()) {
      return {false, "config-P4: unknown switch '" + *switch_id + "'"};
    }
  } else {
    for (Plane& plane : planes_) switches.push_back(&plane);
  }

  if (program_action) {
    for (const Plane* plane : switches) {
      if (plane->vm == nullptr) {
        return {false, "config-P4: switch '" + plane->id +
                           "' has no measurement-program VM"};
      }
    }
    if (install_file.has_value()) {
      std::ifstream in(*install_file);
      if (!in) {
        return {false,
                "config-P4: cannot read program file '" + *install_file +
                    "'"};
      }
      std::ostringstream text;
      text << in.rdbuf();
      mpl::Program program;
      try {
        program = mpl::compile_program_text(text.str(), *install_file);
      } catch (const util::JsonError& e) {
        return {false, "config-P4: " + *install_file + ": " + e.what()};
      } catch (const std::invalid_argument& e) {
        return {false, std::string("config-P4: ") + e.what()};
      }
      const std::string name = program.name;
      try {
        for (Plane* plane : switches) plane->vm->install(program);
      } catch (const std::invalid_argument& e) {
        return {false, std::string("config-P4: ") + e.what()};
      }
      history_.push_back(original);
      return {true, "program '" + name + "' installed on " +
                        std::to_string(switches.size()) + " switch(es)"};
    }
    std::size_t removed = 0;
    for (Plane* plane : switches) {
      if (plane->vm->remove(*remove_name)) ++removed;
    }
    if (removed == 0) {
      return {false,
              "config-P4: no installed program '" + *remove_name + "'"};
    }
    history_.push_back(original);
    return {true, "program '" + *remove_name + "' removed from " +
                      std::to_string(removed) + " switch(es)"};
  }

  // Figure 6 semantics: no --metric applies to the four paper metrics.
  std::vector<std::string_view> metrics(cp::kPaperMetrics.begin(),
                                        cp::kPaperMetrics.end());
  if (metric.has_value()) metrics = {*metric};
  for (Plane* plane : switches) {
    try {
      for (std::string_view name : metrics) {
        if (alert) {
          plane->control_plane->set_alert(name, *threshold,
                                          samples_per_second);
        } else {
          plane->control_plane->set_samples_per_second(name,
                                                       *samples_per_second);
        }
      }
    } catch (const std::invalid_argument& e) {
      return {false, std::string("config-P4: ") + e.what()};
    }
  }

  history_.push_back(original);
  std::string applied = alert ? "alert configured" : "sampling configured";
  return {true, applied};
}

namespace {

const util::JsonPathReader mesh_reader("mesh");

// Bounds that keep each task field's conversion defined: seconds become
// a 64-bit nanosecond SimTime (1e9 s is ~31.7 years), Mb/s a 64-bit b/s
// rate, and pings and probes are numbered by the 16-bit ICMP sequence
// and the 8-bit TTL.
constexpr std::int64_t kMaxSeconds = 1'000'000'000;
constexpr std::int64_t kMaxRateMbps = 1'000'000;
constexpr std::int64_t kMaxPings = 65535;
constexpr std::int64_t kMaxHops = 255;

}  // namespace

PsConfig::Result PsConfig::apply_mesh(
    const util::Json& mesh, PScheduler& scheduler,
    const std::map<std::string, net::Host*>& hosts) {
  using util::JsonPathReader;
  // Validate and convert every task first: templates apply atomically.
  std::vector<std::function<void()>> plan;
  try {
    if (!mesh.is_object() || !mesh.contains("tasks")) {
      mesh_reader.fail("expected an object with a 'tasks' array");
    }
    const util::JsonArray& tasks = mesh_reader.array(mesh.at("tasks"), "tasks");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const util::Json& task = tasks[i];
      const std::string path = JsonPathReader::element("tasks", i);
      if (!task.is_object()) mesh_reader.fail(path, "must be an object");
      auto text = [&](const char* key) {
        if (!task.contains(key)) {
          mesh_reader.fail(path, std::string("needs '") + key + "'");
        }
        return mesh_reader.string(task.at(key),
                                  JsonPathReader::child(path, key));
      };
      auto host = [&](const char* key) {
        const std::string name = text(key);
        const auto it = hosts.find(name);
        if (it == hosts.end()) {
          mesh_reader.fail(JsonPathReader::child(path, key),
                           "unknown host '" + name + "'");
        }
        return it->second;
      };
      // Absent keys keep `fallback`; a present one must be a number in
      // [min, max] (and whole, for counts).
      auto number = [&](const char* key, double fallback, std::int64_t min,
                        std::int64_t max, bool whole = false) {
        const auto v = task.find(key);
        if (!v) return fallback;
        const std::string at = JsonPathReader::child(path, key);
        const double n = mesh_reader.number_in(*v, at, min, max);
        if (whole) mesh_reader.positive_int(*v, at);
        return n;
      };
      auto seconds = [&](const char* key, double fallback) {
        return units::seconds_f(number(key, fallback, 0, kMaxSeconds));
      };

      const std::string type = text("type");
      net::Host* src = host("src");
      net::Host* dst = host("dst");
      const SimTime start = seconds("start_s", 1);
      const SimTime repeat = seconds("repeat_s", 0);
      if (type == "throughput") {
        const PScheduler::ThroughputTask t{
            .start = start,
            .duration = seconds("duration_s", 10),
            .repeat_interval = repeat,
            .sender = {}};
        plan.push_back([=, &scheduler] {
          scheduler.schedule_throughput(*src, *dst, t);
        });
      } else if (type == "latency") {
        const PScheduler::LatencyTask t{
            .start = start,
            .count = static_cast<int>(number("count", 10, 1, kMaxPings, true)),
            .repeat_interval = repeat};
        plan.push_back(
            [=, &scheduler] { scheduler.schedule_latency(*src, *dst, t); });
      } else if (type == "trace") {
        const PScheduler::TracerouteTask t{
            .start = start,
            .max_hops =
                static_cast<int>(number("max_hops", 8, 1, kMaxHops, true)),
            .repeat_interval = repeat};
        plan.push_back(
            [=, &scheduler] { scheduler.schedule_traceroute(*src, *dst, t); });
      } else if (type == "udp_stream") {
        const PScheduler::UdpStreamTask t{
            .start = start,
            .duration = seconds("duration_s", 5),
            .rate_bps = static_cast<std::uint64_t>(
                number("rate_mbps", 10, 0, kMaxRateMbps) * 1e6),
            .repeat_interval = repeat};
        plan.push_back(
            [=, &scheduler] { scheduler.schedule_udp_stream(*src, *dst, t); });
      } else {
        mesh_reader.fail(JsonPathReader::child(path, "type"),
                         "must be throughput, latency, trace or udp_stream");
      }
    }
  } catch (const std::invalid_argument& e) {
    return {false, e.what()};
  }

  for (const auto& schedule : plan) schedule();
  history_.push_back("apply_mesh(" + std::to_string(plan.size()) +
                     " tasks)");
  return {true, std::to_string(plan.size()) + " tasks scheduled"};
}

PsConfig::Result PsConfig::apply_mesh_text(
    const std::string& text, PScheduler& scheduler,
    const std::map<std::string, net::Host*>& hosts) {
  try {
    return apply_mesh(util::Json::parse(text), scheduler, hosts);
  } catch (const util::JsonError& e) {
    return {false, std::string("mesh: ") + e.what()};
  }
}

}  // namespace p4s::ps
