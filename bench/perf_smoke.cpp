// perf_smoke — the CI schema gate for the benches' output.
//
//   perf_smoke --validate BENCH_a.json BENCH_b.json ...
//
// exits non-zero if any file is missing, malformed, or off-schema.
// Absolute numbers are machine-dependent and are archived, not
// asserted; the end-to-end and per-stage timings live in bench/e2e.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "bench_json.hpp"

using namespace p4s;

namespace {

// Bench-specific schema contracts layered over the generic p4s-bench-v1
// shape. program_vm must carry its headline keys — downstream tooling
// plots them by name, so a silent rename is a gate failure, not a soft
// drift.
bool validate_bench_contract(const std::string& file) {
  std::ifstream in(file);
  if (!in) return false;
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    const util::Json doc = util::Json::parse(text);
    const std::string& name = doc.at("name").as_string();
    const auto require_positive = [&](const char* key) {
      const auto& metrics = doc.at("metrics").as_object();
      const auto it = metrics.find(key);
      if (it == metrics.end() || !it->second.is_number() ||
          it->second.as_double() <= 0.0) {
        std::fprintf(stderr,
                     "perf_smoke --validate: %s: %s requires positive "
                     "metric '%s'\n",
                     file.c_str(), name.c_str(), key);
        return false;
      }
      return true;
    };
    if (name == "program_vm") {
      // The interpreter-overhead headline: both throughputs and the
      // ratio. The overhead *budget* is enforced by the bench's own
      // exit code; here we gate on the schema.
      for (const char* key :
           {"events", "handwritten_events_per_sec",
            "interpreted_events_per_sec", "overhead_ratio"}) {
        if (!require_positive(key)) return false;
      }
    }
  } catch (const util::JsonError& e) {
    std::fprintf(stderr, "perf_smoke --validate: %s: %s\n", file.c_str(),
                 e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "--validate") != 0) {
    std::fprintf(stderr, "usage: perf_smoke --validate BENCH_*.json...\n");
    return 2;
  }
  bool ok = argc > 2;
  if (!ok) std::fprintf(stderr, "perf_smoke --validate: no files given\n");
  for (int i = 2; i < argc; ++i) {
    if (bench::BenchReport::validate_file(argv[i]) &&
        validate_bench_contract(argv[i])) {
      std::printf("ok: %s\n", argv[i]);
    } else {
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
