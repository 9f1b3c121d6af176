#include "core/config_loader.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "mpl/compiler.hpp"
#include "util/json_path.hpp"

namespace p4s::core {

namespace {

using util::JsonPathReader;

// The loader's wording puts a colon between a key's path and the reason
// a name lookup failed ("'switches[0].tap': unknown tap point: x").
const JsonPathReader reader("config", ": ");

// Bounds that keep every conversion of a read number defined: times
// become a 64-bit nanosecond SimTime (1e9 s is ~31.7 years), sizes and
// rates given in kB, kb/s, Mb/s or MB a 64-bit byte or bit count, and
// ports and some counters fill 16- or 32-bit fields.
constexpr std::int64_t kMaxSeconds = 1'000'000'000;
constexpr std::int64_t kMaxScaled = 1'000'000'000;
constexpr std::int64_t kMaxU16 = 65535;
constexpr std::int64_t kMaxU32 = 4'294'967'295;

/// A time in [0, kMaxSeconds] s, written in units of 1/`per_second` s
/// (1 for "_s" keys, 1000 for "_ms", 1'000'000 for "_us").
SimTime duration(const util::Json& v, const std::string& path,
                 std::int64_t per_second) {
  return units::seconds_f(
      reader.number_in(v, path, 0, kMaxSeconds * per_second) /
      static_cast<double>(per_second));
}

/// A size or rate in [0, kMaxScaled] units of `unit` (1024 for "_kb",
/// 1e6 for "_mbps"), as a 64-bit count.
std::uint64_t scaled(const util::Json& v, const std::string& path,
                     double unit) {
  return static_cast<std::uint64_t>(reader.number_in(v, path, 0, kMaxScaled) *
                                    unit);
}

/// A whole number in [0, `max`], for a field narrower than 64 bits.
std::uint64_t narrow_uint(const util::Json& v, const std::string& path,
                          std::int64_t max) {
  const std::uint64_t n = reader.unsigned_int(v, path);
  reader.number_in(v, path, 0, max);
  return n;
}

/// Walk an object's keys, dispatching each (with its full path) to
/// `apply`; unknown keys fail.
template <typename Apply>
void walk(const util::Json& obj, const std::string& section, Apply&& apply) {
  if (!obj.is_object()) reader.fail(section, "must be an object");
  for (const auto& [key, value] : obj.as_object()) {
    const std::string path = JsonPathReader::child(section, key);
    if (!apply(key, value, path)) reader.fail("unknown key '" + path + "'");
  }
}

/// Fail at load time, not at MonitoringSystem construction: the
/// topology's host names are a fixed set.
std::string topology_host(const std::string& name) {
  for (const char* host : {"dtn_int", "psonar_int", "ext0", "ext1", "ext2",
                           "psonar_ext0", "psonar_ext1", "psonar_ext2"}) {
    if (name == host) return name;
  }
  throw std::invalid_argument(
      "unknown host '" + name +
      "' (dtn_int, psonar_int, ext0..2, psonar_ext0..2)");
}

std::vector<std::string> string_list(const util::Json& v,
                                     const std::string& path) {
  std::vector<std::string> out;
  for (const auto& entry : reader.array(v, path)) {
    if (!entry.is_string()) reader.fail(path, "entries must be strings");
    out.push_back(entry.as_string());
  }
  return out;
}

net::FaultInjector::ScheduledFault parse_fault(const util::Json& entry,
                                               const std::string& where) {
  net::FaultInjector::ScheduledFault fault;
  bool has_at = false;
  walk(entry, where, [&](const std::string& k, const util::Json& v,
                         const std::string& path) {
    if (k == "at_s") {
      fault.at = duration(v, path, 1);
      has_at = true;
    } else if (k == "kind") {
      const std::string& kind = reader.string(v, path);
      if (kind == "reset") {
        fault.kind = net::FaultInjector::FaultKind::kReset;
      } else if (kind == "stall") {
        fault.kind = net::FaultInjector::FaultKind::kStall;
      } else {
        reader.fail(path, "must be 'reset' or 'stall'");
      }
    } else if (k == "duration_s") {
      fault.duration = duration(v, path, 1);
    } else {
      return false;
    }
    return true;
  });
  if (!has_at) reader.fail(where, "needs 'at_s'");
  if (fault.kind == net::FaultInjector::FaultKind::kStall &&
      fault.duration == 0) {
    reader.fail(where, "stall needs a 'duration_s' > 0");
  }
  return fault;
}

/// Parse an array of measurement-program documents at `where` (e.g.
/// "programs" or "switches[1].programs") through the mpl compiler; the
/// compiler's diagnostics already carry the full JSON path of the
/// offending key ("switches[1].programs[0].ops[2].field").
std::vector<mpl::Program> parse_programs(const util::Json& v,
                                         const std::string& where) {
  std::vector<mpl::Program> programs;
  const auto& entries = reader.array(v, where);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    try {
      programs.push_back(mpl::compile_program(
          entries[i], JsonPathReader::element(where, i)));
    } catch (const std::invalid_argument& e) {
      reader.fail(e.what());
    }
  }
  return programs;
}

}  // namespace

MonitoringSystemConfig config_from_json(const util::Json& doc) {
  MonitoringSystemConfig config;
  if (!doc.is_object()) reader.fail("document must be an object");

  for (const auto& [key, value] : doc.as_object()) {
    if (key == "seed") {
      config.seed = reader.unsigned_int(value, key);
    } else if (key == "tap_latency_us") {
      config.tap_latency = duration(value, key, 1'000'000);
    } else if (key == "topology") {
      walk(value, "topology", [&](const std::string& k, const util::Json& v,
                                  const std::string& path) {
        if (k == "bottleneck_mbps") {
          config.topology.bottleneck_bps = scaled(v, path, 1e6);
        } else if (k == "access_mbps") {
          config.topology.access_bps = scaled(v, path, 1e6);
        } else if (k == "rtt_ms") {
          if (!v.is_array() || v.size() != 3) {
            reader.fail(path, "must be an array of 3 numbers");
          }
          for (std::size_t i = 0; i < 3; ++i) {
            config.topology.rtt[i] = duration(
                v.as_array()[i], JsonPathReader::element(path, i), 1000);
          }
        } else if (k == "core_buffer_bytes") {
          config.topology.core_buffer_bytes = reader.unsigned_int(v, path);
        } else if (k == "core_buffer_bdp_of_rtt_ms") {
          // JsonObject iterates keys alphabetically, so
          // "bottleneck_mbps" has already been applied when this
          // resolves ('b' < 'c').
          config.topology.core_buffer_bytes = units::bdp_bytes(
              config.topology.bottleneck_bps, duration(v, path, 1000));
        } else {
          return false;
        }
        return true;
      });
    } else if (key == "program") {
      walk(value, "program", [&](const std::string& k, const util::Json& v,
                                 const std::string& path) {
        if (k == "promotion_kb") {
          config.program.tracker.promotion_bytes = scaled(v, path, 1024);
        } else if (k == "burst_threshold_us") {
          config.program.queue.burst_threshold_ns =
              duration(v, path, 1'000'000);
          config.program.queue.burst_exit_ns =
              config.program.queue.burst_threshold_ns / 2;
        } else if (k == "int_sample_every") {
          const auto n =
              static_cast<std::uint32_t>(narrow_uint(v, path, kMaxU32));
          config.program.int_export.enabled = n > 0;
          if (n > 0) config.program.int_export.sample_every = n;
        } else if (k == "iat_min_gap_ms") {
          config.program.iat.min_gap_ns = duration(v, path, 1000);
        } else {
          return false;
        }
        return true;
      });
    } else if (key == "transport") {
      walk(value, "transport", [&](const std::string& k, const util::Json& v,
                                   const std::string& path) {
        auto& t = config.transport;
        if (k == "resilient") {
          t.resilient = reader.boolean(v, path);
        } else if (k == "latency_us") {
          t.channel.latency = duration(v, path, 1'000'000);
        } else if (k == "send_buffer_kb") {
          t.channel.send_buffer_bytes = scaled(v, path, 1024);
        } else if (k == "drain_kbps") {
          t.channel.drain_bps = scaled(v, path, 1000);
        } else if (k == "max_chunk_bytes") {
          t.channel.max_chunk_bytes = reader.unsigned_int(v, path);
        } else if (k == "random_chunking") {
          t.channel.random_chunking = reader.boolean(v, path);
        } else if (k == "queue_capacity") {
          t.sink.queue_capacity = reader.unsigned_int(v, path);
        } else if (k == "ack_timeout_ms") {
          t.sink.ack_timeout = duration(v, path, 1000);
        } else if (k == "retry_base_ms") {
          t.sink.backoff.base = duration(v, path, 1000);
        } else if (k == "retry_max_ms") {
          t.sink.backoff.max = duration(v, path, 1000);
        } else if (k == "health_interval_s") {
          t.sink.health_interval = duration(v, path, 1);
        } else if (k == "faults") {
          const auto& entries = reader.array(v, path);
          for (std::size_t i = 0; i < entries.size(); ++i) {
            t.faults.push_back(
                parse_fault(entries[i], JsonPathReader::element(path, i)));
          }
        } else {
          return false;
        }
        return true;
      });
      if (!config.transport.faults.empty() && !config.transport.resilient) {
        reader.fail("'transport.faults' requires 'transport.resilient': true "
                    "(the legacy direct wire has no fault surface)");
      }
    } else if (key == "trace") {
      walk(value, "trace", [&](const std::string& k, const util::Json& v,
                               const std::string& path) {
        if (k == "capture") {
          config.trace.capture = reader.boolean(v, path);
        } else if (k == "path_base") {
          config.trace.path_base = reader.string(v, path);
        } else if (k == "snaplen") {
          config.trace.snaplen =
              static_cast<std::uint32_t>(narrow_uint(v, path, kMaxU32));
        } else {
          return false;
        }
        return true;
      });
    } else if (key == "archive") {
      walk(value, "archive", [&](const std::string& k, const util::Json& v,
                                 const std::string& path) {
        auto& a = config.archive;
        if (k == "backend") {
          const std::string& backend = reader.string(v, path);
          if (backend == "store") {
            a.durable = true;
          } else if (backend == "memory") {
            a.durable = false;
          } else {
            reader.fail(path, "must be 'memory' or 'store'");
          }
        } else if (k == "dir") {
          a.dir = reader.string(v, path);
        } else if (k == "time_field") {
          a.store.time_field = reader.string(v, path);
        } else if (k == "hot_fields") {
          a.store.hot_fields = string_list(v, path);
        } else if (k == "wal_batch_docs") {
          a.store.wal_batch_docs = reader.unsigned_int(v, path);
        } else if (k == "seal_min_docs") {
          a.store.seal_min_docs = reader.unsigned_int(v, path);
        } else if (k == "compact_fanin") {
          a.store.compact_fanin = reader.unsigned_int(v, path);
        } else if (k == "rollup_bucket_s") {
          a.store.rollup_bucket_ns =
              static_cast<std::uint64_t>(duration(v, path, 1));
        } else if (k == "rollup_fields") {
          a.store.rollup_fields = string_list(v, path);
        } else if (k == "maintenance_interval_s") {
          a.maintenance_interval = duration(v, path, 1);
        } else {
          return false;
        }
        return true;
      });
      if (config.archive.durable && config.archive.dir.empty()) {
        reader.fail("'archive.backend': 'store' requires 'archive.dir'");
      }
    } else if (key == "serving") {
      walk(value, "serving", [&](const std::string& k, const util::Json& v,
                                 const std::string& path) {
        auto& s = config.serving;
        if (k == "enabled") {
          s.enabled = reader.boolean(v, path);
        } else if (k == "cache_bytes") {
          s.cache_bytes = reader.unsigned_int(v, path);
        } else if (k == "cache_shards") {
          s.cache_shards = reader.unsigned_int(v, path);
          if (s.cache_shards == 0) reader.fail(path, "must be at least 1");
        } else if (k == "reader_threads") {
          s.reader_threads = reader.unsigned_int(v, path);
        } else {
          return false;
        }
        return true;
      });
      if (config.serving.enabled && !config.archive.durable) {
        reader.fail("'serving.enabled' requires 'archive.backend': 'store'");
      }
    } else if (key == "switches") {
      // Two accepted shapes: the legacy bare array of site entries, or
      // an object {"parallel": N, "sites": [...]} that also selects the
      // fabric executor's worker count (N threads; 1 = none, serial).
      auto parse_sites = [&](const util::Json& sites) {
        if (!sites.is_array()) reader.fail("'switches' sites must be an array");
        const auto& entries = sites.as_array();
        for (std::size_t i = 0; i < entries.size(); ++i) {
          MonitoredSwitchConfig sw;
          walk(entries[i], JsonPathReader::element("switches", i),
               [&](const std::string& k, const util::Json& v,
                   const std::string& path) {
                 if (k == "id") {
                   sw.id = reader.string(v, path);
                 } else if (k == "tap") {
                   sw.tap = reader.name(v, path, tap_point_from_name);
                 } else if (k == "programs") {
                   sw.programs = parse_programs(v, path);
                 } else {
                   return false;
                 }
                 return true;
               });
          config.switches.push_back(std::move(sw));
        }
      };
      if (value.is_array()) {
        parse_sites(value);
      } else if (value.is_object()) {
        walk(value, "switches", [&](const std::string& k, const util::Json& v,
                                    const std::string& path) {
          if (k == "parallel") {
            config.parallel =
                static_cast<std::size_t>(reader.positive_int(v, path));
          } else if (k == "sites") {
            parse_sites(v);
          } else {
            return false;
          }
          return true;
        });
      } else {
        reader.fail(key, "must be an array or an object with 'sites'");
      }
    } else if (key == "telemetry") {
      // Flow-table selection and switch-wide histogram engines. The keys
      // of the section object iterate alphabetically ("cuckoo" <
      // "flow_table" < "histograms" < "sketch_alpha"), so the settings
      // are collected first and applied after the walk.
      bool saw_cuckoo = false;
      std::optional<double> sketch_alpha;
      struct HistEntry {
        telemetry::HistogramEngineConfig hc;
        bool has_alpha = false;
      };
      std::vector<HistEntry> hist_entries;
      walk(value, "telemetry", [&](const std::string& k, const util::Json& v,
                                   const std::string& path) {
        auto& tracker = config.program.tracker;
        if (k == "flow_table") {
          tracker.flow_table =
              reader.name(v, path, telemetry::flow_table_from_name);
        } else if (k == "cuckoo") {
          saw_cuckoo = true;
          walk(v, path, [&](const std::string& ck, const util::Json& cv,
                            const std::string& cpath) {
            if (ck == "ways") {
              const double n = reader.number(cv, cpath);
              if (n < 2 || n > 8 || n != std::floor(n)) {
                reader.fail(cpath, "must be an integer in 2..8");
              }
              tracker.cuckoo.ways = static_cast<std::size_t>(n);
            } else if (ck == "max_kicks") {
              tracker.cuckoo.max_kicks =
                  static_cast<std::size_t>(reader.positive_int(cv, cpath));
            } else if (ck == "idle_age_s") {
              tracker.cuckoo.idle_age = duration(cv, cpath, 1);
            } else {
              return false;
            }
            return true;
          });
        } else if (k == "sketch_alpha") {
          sketch_alpha = reader.fraction(v, path);
        } else if (k == "spin_rtt") {
          // Enabling the section (even empty) builds the spin-bit RTT
          // engine with defaults.
          auto& sc = config.program.spin_rtt.emplace();
          walk(v, path, [&](const std::string& sk, const util::Json& sv,
                            const std::string& spath) {
            if (sk == "slots") {
              sc.slots =
                  static_cast<std::size_t>(reader.positive_int(sv, spath));
            } else if (sk == "rtt_floor_us") {
              sc.rtt_floor_ns = duration(sv, spath, 1'000'000);
            } else if (sk == "outlier_factor") {
              const double f = reader.number(sv, spath);
              if (!(f > 1.0)) reader.fail(spath, "must be > 1");
              sc.outlier_factor = f;
            } else if (sk == "alpha") {
              sc.sketch_alpha = reader.fraction(sv, spath);
            } else {
              return false;
            }
            return true;
          });
        } else if (k == "nids") {
          auto& nc = config.program.nids.emplace();
          walk(v, path, [&](const std::string& nk, const util::Json& nv,
                            const std::string& npath) {
            if (nk == "max_flows") {
              nc.max_flows =
                  static_cast<std::size_t>(reader.positive_int(nv, npath));
            } else if (nk == "syn_flood_syns") {
              nc.syn_flood_syns = reader.positive_int(nv, npath);
            } else if (nk == "syn_flood_ratio") {
              const double r = reader.number(nv, npath);
              if (!(r >= 1.0)) reader.fail(npath, "must be >= 1");
              nc.syn_flood_ratio = r;
            } else if (nk == "port_scan_ports") {
              nc.port_scan_ports =
                  static_cast<std::size_t>(reader.positive_int(nv, npath));
            } else if (nk == "min_window_packets") {
              nc.min_window_packets = reader.positive_int(nv, npath);
            } else if (nk == "window_ms") {
              const std::uint64_t ms = reader.positive_int(nv, npath);
              reader.number_in(nv, npath, 1, kMaxSeconds * 1000);
              nc.window =
                  static_cast<SimTime>(static_cast<double>(ms) * 1e6);
            } else {
              return false;
            }
            return true;
          });
        } else if (k == "histograms") {
          const auto& entries = reader.array(v, path);
          for (std::size_t i = 0; i < entries.size(); ++i) {
            const std::string where = JsonPathReader::element(path, i);
            HistEntry entry;
            bool has_metric = false;
            walk(entries[i], where, [&](const std::string& hk,
                                        const util::Json& hv,
                                        const std::string& hpath) {
              auto& hc = entry.hc;
              if (hk == "metric") {
                hc.metric = reader.name(
                    hv, hpath, telemetry::histogram_metric_from_name);
                has_metric = true;
              } else if (hk == "id") {
                hc.id = reader.string(hv, hpath);
              } else if (hk == "scale") {
                hc.histogram.scale =
                    reader.name(hv, hpath, sketch::histogram_scale_from_name);
              } else if (hk == "min_us") {
                hc.histogram.min = reader.number(hv, hpath) * 1e3;  // -> ns
              } else if (hk == "max_ms") {
                hc.histogram.max = reader.number(hv, hpath) * 1e6;  // -> ns
              } else if (hk == "bins") {
                hc.histogram.bins =
                    static_cast<std::size_t>(reader.positive_int(hv, hpath));
              } else if (hk == "alpha") {
                hc.sketch_alpha = reader.fraction(hv, hpath);
                entry.has_alpha = true;
              } else {
                return false;
              }
              return true;
            });
            if (!has_metric) reader.fail(where, "needs 'metric'");
            if (!(entry.hc.histogram.min > 0.0 &&
                  entry.hc.histogram.min < entry.hc.histogram.max)) {
              reader.fail(where, "bin range must satisfy 0 < min < max");
            }
            hist_entries.push_back(std::move(entry));
          }
        } else {
          return false;
        }
        return true;
      });
      if (saw_cuckoo && config.program.tracker.flow_table !=
                            telemetry::FlowTableKind::kCuckoo) {
        reader.fail("'telemetry.cuckoo' requires 'telemetry.flow_table': "
                    "'cuckoo'");
      }
      for (auto& entry : hist_entries) {
        if (!entry.has_alpha && sketch_alpha.has_value()) {
          entry.hc.sketch_alpha = *sketch_alpha;
        }
        config.program.histograms.push_back(std::move(entry.hc));
      }
    } else if (key == "programs") {
      // Fabric-wide measurement programs, installed on every site's VM.
      config.programs = parse_programs(value, "programs");
    } else if (key == "workloads") {
      // Declarative traffic generators (workload/generators): resolved
      // against topology host names when the MonitoringSystem is built.
      const auto& entries = reader.array(value, key);
      for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string where = JsonPathReader::element(key, i);
        workload::WorkloadSpec spec;
        bool has_kind = false;
        walk(entries[i], where, [&](const std::string& k, const util::Json& v,
                                    const std::string& path) {
          if (k == "kind") {
            spec.kind = reader.name(v, path, workload::workload_kind_from_name);
            has_kind = true;
          } else if (k == "src" || k == "dst") {
            (k == "src" ? spec.src : spec.dst) =
                reader.name(v, path, topology_host);
          } else if (k == "start_s") {
            spec.start = duration(v, path, 1);
          } else if (k == "duration_s") {
            spec.duration = duration(v, path, 1);
          } else if (k == "pps") {
            spec.pps = reader.number(v, path);
          } else if (k == "port") {
            spec.port =
                static_cast<std::uint16_t>(narrow_uint(v, path, kMaxU16));
          } else if (k == "port_count") {
            spec.port_count =
                static_cast<std::uint32_t>(narrow_uint(v, path, kMaxU32));
          } else if (k == "spoof_count") {
            if (reader.number(v, path) < 1) reader.fail(path, "must be >= 1");
            spec.spoof_count =
                static_cast<std::uint32_t>(narrow_uint(v, path, kMaxU32));
          } else if (k == "elephants") {
            spec.elephants = reader.unsigned_int(v, path);
          } else if (k == "elephant_mb") {
            spec.elephant_bytes = scaled(v, path, 1e6);
          } else if (k == "mice_per_second") {
            spec.mice_per_second = reader.number(v, path);
          } else if (k == "mice_kb") {
            spec.mice_bytes = scaled(v, path, 1024);
          } else {
            return false;
          }
          return true;
        });
        if (!has_kind) reader.fail(where, "needs 'kind'");
        config.workloads.push_back(std::move(spec));
      }
    } else if (key == "control") {
      walk(value, "control", [&](const std::string& k, const util::Json& v,
                                 const std::string& path) {
        if (k == "flow_idle_timeout_s") {
          config.control.flow_idle_timeout = duration(v, path, 1);
        } else if (k == "digest_poll_ms") {
          config.control.digest_poll_interval = duration(v, path, 1000);
        } else {
          return false;
        }
        return true;
      });
    } else {
      reader.fail("unknown key '" + key + "'");
    }
  }
  return config;
}

MonitoringSystemConfig config_from_text(const std::string& text) {
  return config_from_json(util::Json::parse(text));
}

}  // namespace p4s::core
