#include "controlplane/cca_identifier.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace p4s::cp {

const char* to_string(CcaClass cca) {
  switch (cca) {
    case CcaClass::kUnknown: return "unknown";
    case CcaClass::kRenoLike: return "reno-like";
    case CcaClass::kCubicLike: return "cubic-like";
    case CcaClass::kBbrLike: return "bbr-like";
  }
  return "?";
}

CcaIdentifier::CcaIdentifier(ControlPlane& control, Config config)
    : control_(control), config_(config) {}

void CcaIdentifier::start() {
  if (started_) return;
  started_ = true;
  sim::Simulation& sim = control_.simulation();
  sim.every(sim.now() + config_.sample_interval, config_.sample_interval,
            [this]() {
              sample();
              return true;
            });
}

void CcaIdentifier::sample() {
  // Sample the flight register of every occupied slot; drop histories of
  // released slots.
  control_.sync_data_plane();
  const telemetry::DataPlaneProgram& program = control_.program();
  for (auto it = history_.begin(); it != history_.end();) {
    if (!program.tracker().occupied(it->first)) {
      it = history_.erase(it);
    } else {
      ++it;
    }
  }
  for (std::uint16_t slot = 0; slot < telemetry::kFlowSlots; ++slot) {
    if (!program.tracker().occupied(slot)) continue;
    auto& h = history_[slot];
    h.flight.push_back(static_cast<double>(
        program.limit_classifier().flight_bytes(slot)));
    h.losses.push_back(program.rtt_loss().losses(slot));
    if (h.flight.size() > config_.window) {
      h.flight.pop_front();
      h.losses.pop_front();
    }
  }
}

CcaIdentifier::Features CcaIdentifier::features(std::uint16_t slot) const {
  Features f;
  auto it = history_.find(slot);
  if (it == history_.end()) return f;
  const auto& ring = it->second.flight;
  f.samples = ring.size();
  if (!it->second.losses.empty()) {
    f.losses = it->second.losses.back() - it->second.losses.front();
  }
  if (ring.size() < 4) return f;

  util::RunningStats stats;
  for (double v : ring) stats.add(v);
  f.mean_flight = stats.mean();
  f.cv = stats.cv();

  // Window drift: quarter means at both ends.
  const std::size_t quarter = std::max<std::size_t>(1, ring.size() / 4);
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < quarter; ++i) {
    head += ring[i];
    tail += ring[ring.size() - 1 - i];
  }
  if (f.mean_flight > 0) {
    f.trend = (tail - head) / static_cast<double>(quarter) / f.mean_flight;
  }

  // Split the series into growth segments separated by multiplicative
  // decreases; measure where within each segment the growth lands.
  std::vector<std::size_t> cuts;  // index of the sample AFTER a decrease
  for (std::size_t i = 1; i < ring.size(); ++i) {
    if (ring[i - 1] > 0 &&
        ring[i] < ring[i - 1] * (1.0 - config_.decrease_threshold)) {
      ++f.decreases;
      cuts.push_back(i);
    }
  }

  double early_sum = 0.0;
  double total_sum = 0.0;
  auto segment = [&](std::size_t begin, std::size_t end) {
    // [begin, end): one growth run between decreases.
    if (end - begin < 9) return;  // too short to shape-test
    const std::size_t third = (end - begin) / 3;
    const double start_v = ring[begin];
    const double early_v = ring[begin + third];
    const double end_v = ring[end - 1];
    const double total = end_v - start_v;
    if (total <= 0) return;
    early_sum += std::max(0.0, early_v - start_v);
    total_sum += total;
  };
  std::size_t seg_begin = 0;
  for (std::size_t cut : cuts) {
    segment(seg_begin, cut);
    seg_begin = cut;
  }
  segment(seg_begin, ring.size());
  if (total_sum > 0) f.early_share = early_sum / total_sum;
  return f;
}

CcaClass CcaIdentifier::classify_features(const Features& f) {
  if (f.samples < 4) return CcaClass::kUnknown;
  if (f.mean_flight <= 0) return CcaClass::kUnknown;

  if (f.decreases == 0 && f.losses == 0) {
    if (std::abs(f.trend) >= 0.05 && f.early_share > 0.0) {
      // Still climbing without loss: a loss-based CCA probing for
      // bandwidth. Classify by the shape of the climb (below).
    } else if (f.cv > 0.02 && f.cv < 0.45) {
      // Flat band with visible oscillation: BBR's gain cycling. A purely
      // receiver/application-limited flow is flatter still (cv ~0).
      return CcaClass::kBbrLike;
    } else {
      return CcaClass::kUnknown;
    }
  }
  if (f.early_share <= 0.0) return CcaClass::kUnknown;
  // Loss-based: Reno's linear (AIMD) growth puts exactly a third of each
  // segment's growth in its first third. CUBIC is non-linear in either
  // direction — a fast concave rise toward w_max (early-heavy) or, when
  // segments end in the convex probing spurt that precedes the next loss,
  // a late-heavy tail. Classify by deviation from linearity.
  if (std::abs(f.early_share - 1.0 / 3.0) > 0.12) {
    return CcaClass::kCubicLike;
  }
  return CcaClass::kRenoLike;
}

CcaClass CcaIdentifier::classify(std::uint16_t slot) const {
  const Features f = features(slot);
  if (f.samples < config_.min_samples) return CcaClass::kUnknown;
  return classify_features(f);
}

std::map<std::uint16_t, CcaClass> CcaIdentifier::classify_all() const {
  std::map<std::uint16_t, CcaClass> out;
  for (const auto& [slot, history] : history_) {
    (void)history;
    out[slot] = classify(slot);
  }
  return out;
}

}  // namespace p4s::cp
