#include "controlplane/engine_exports.hpp"

#include <string>

namespace p4s::cp {

void register_engine_exports(ControlPlane& cp,
                             telemetry::DataPlaneProgram& program) {
  for (const telemetry::HistogramEngine* eng :
       program.engines_of<const telemetry::HistogramEngine>()) {
    ControlPlane::MetricExtractor ex;
    ex.name = std::string(eng->name());
    ex.value_key = "p99_ms";
    ex.read_switch = [eng](SimTime) { return eng->quantile_ns(0.99) / 1e6; };
    ex.annotate = [eng](util::Json& doc, SimTime) {
      doc["p50_ms"] = eng->quantile_ns(0.50) / 1e6;
      doc["p95_ms"] = eng->quantile_ns(0.95) / 1e6;
      doc["samples"] = eng->samples();
      doc["histogram"] = eng->histogram().to_json();
    };
    cp.register_extractor(std::move(ex));
  }
  for (const telemetry::SpinRttEngine* eng :
       program.engines_of<const telemetry::SpinRttEngine>()) {
    ControlPlane::MetricExtractor ex;
    ex.name = std::string(eng->name());
    ex.value_key = "p50_ms";
    ex.read_switch = [eng](SimTime) { return eng->quantile_ns(0.50) / 1e6; };
    ex.annotate = [eng](util::Json& doc, SimTime) {
      doc["p95_ms"] = eng->quantile_ns(0.95) / 1e6;
      doc["samples"] = eng->samples();
      doc["edges"] = eng->edges();
      doc["rejected_reordered"] = eng->rejected_reordered();
      doc["rejected_outlier"] = eng->rejected_outlier();
      doc["rejected_floor"] = eng->rejected_floor();
      doc["dcid_collisions"] = eng->collisions();
    };
    cp.register_extractor(std::move(ex));
  }
  for (telemetry::NidsFeatureEngine* eng :
       program.engines_of<telemetry::NidsFeatureEngine>()) {
    cp.register_digest_source(
        [eng](SimTime now) { return eng->drain_digests(now); });
  }
}

}  // namespace p4s::cp
