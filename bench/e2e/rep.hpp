// One rep: build a workload's system, run it to its horizon, check its
// outputs and report what it measured. e2e runs every rep in a fresh
// child process (`e2e --rep ...`), so each rep's peak RSS is its own and
// no rep inherits another's heap.
#pragma once

#include <cstdint>
#include <string>

#include "util/json.hpp"
#include "workloads.hpp"

namespace p4s::e2e {

struct RepOptions {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool quick = false;
  /// Install the timing seams, write TRACE_<workload>.json and report
  /// the per-layer metrics.
  bool traced = false;
  /// Passed to ScenarioOptions::parallel.
  std::size_t parallel = 0;
  /// Build the system, report its set-up time and stop: an extra setup_s
  /// sample from a fresh process (the allocator of a process that already
  /// built and freed a system sets up 5-10x faster than a user's does).
  bool setup_only = false;
  /// Where store directories and the trace file go.
  std::string out_dir = ".";
};

/// Run one rep. The result document carries the rep's raw measurements
/// (set-up time, run wall, counts, query latencies, freshness), its
/// failure counts, the archive digest, and the list of checks that
/// failed ("errors"; empty when the rep is correct).
util::Json run_rep(const RepOptions& options);

}  // namespace p4s::e2e
