// Congestion-control-algorithm identification (after Kfoury et al.'s
// P4CCI, the paper's §6): the data plane extracts each flow's
// bytes-in-flight (the limitation classifier's flight register) and
// forwards the series to the controller, which classifies the flow's
// CCA. P4CCI feeds a deep-learning model; this reproduction uses an
// interpretable feature heuristic over the same signal:
//
//  * multiplicative window decreases + losses  -> loss-based CCA;
//    within loss-based, the shape of the growth segment between
//    decreases separates CUBIC (fast concave rise toward w_max, then a
//    plateau: most growth lands in the segment's first third) from
//    Reno/AIMD (linear: growth spread evenly);
//  * a backlogged flow with NO decreases and NO losses whose flight
//    oscillates in a tight band -> BBR-like (gain-cycle probing);
//  * not enough signal -> unknown.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "controlplane/control_plane.hpp"

namespace p4s::cp {

enum class CcaClass : std::uint8_t {
  kUnknown = 0,
  kRenoLike = 1,
  kCubicLike = 2,
  kBbrLike = 3,
};

const char* to_string(CcaClass cca);

class CcaIdentifier {
 public:
  struct Config {
    /// Flight-size sampling cadence. Must be finer than BBR's probe
    /// phase (one rt_prop) or the probe oscillation aliases away;
    /// P4CCI's data plane exports at comparable rates.
    SimTime sample_interval = units::milliseconds(25);
    /// Samples kept per flow (ring buffer); 512 x 25 ms = 12.8 s.
    std::size_t window = 512;
    /// Relative drop between consecutive samples that counts as a
    /// multiplicative decrease.
    double decrease_threshold = 0.25;
    /// Minimum samples before a verdict is attempted.
    std::size_t min_samples = 40;
  };

  /// Samples the data plane `control` drives, on its clock, after its
  /// driver sync (so every sample is the register state at that time).
  CcaIdentifier(ControlPlane& control, Config config);
  explicit CcaIdentifier(ControlPlane& control)
      : CcaIdentifier(control, Config{}) {}

  /// Start the sampling timer.
  void start();

  /// Current verdict for a tracked slot.
  CcaClass classify(std::uint16_t slot) const;

  /// Verdicts for every currently tracked flow.
  std::map<std::uint16_t, CcaClass> classify_all() const;

  /// Diagnostic features for a slot (exposed for tests and benches).
  struct Features {
    std::size_t samples = 0;
    int decreases = 0;
    /// Losses within the observation window (NOT lifetime: a BBR flow's
    /// startup burst must not brand it loss-based forever).
    std::uint64_t losses = 0;
    double mean_flight = 0.0;
    double cv = 0.0;          // flight coefficient of variation
    double early_share = 0.0; // growth fraction in segments' first third
    /// Net drift across the window: (mean of last quarter - mean of
    /// first quarter) / mean. Reno's loss-free additive climb shows a
    /// clear positive trend; BBR oscillates around a flat band.
    double trend = 0.0;
  };
  Features features(std::uint16_t slot) const;

 private:
  void sample();
  static CcaClass classify_features(const Features& f);

  ControlPlane& control_;
  Config config_;
  bool started_ = false;
  struct History {
    std::deque<double> flight;
    std::deque<std::uint64_t> losses;  // cumulative loss count per sample
  };
  std::map<std::uint16_t, History> history_;
};

}  // namespace p4s::cp
