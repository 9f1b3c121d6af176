// The P4 programmable switch target. It receives the two TAP mirror
// streams on dedicated ports (like the Wedge100BF-32X ports the paper
// cables the TAPs into) as frame bytes, runs the programmable parser,
// and hands the packet context to the loaded program. Port and
// ingress-timestamp intrinsic metadata are attached by the target,
// exactly as on Tofino.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/tap.hpp"
#include "p4/parser.hpp"
#include "p4/pipeline.hpp"
#include "sim/simulation.hpp"

namespace p4s::p4 {

class P4Switch : public net::MirrorSink {
 public:
  static constexpr std::uint16_t kIngressTapPort = 0;
  static constexpr std::uint16_t kEgressTapPort = 1;

  P4Switch(sim::Simulation& sim, std::string name)
      : sim_(sim), name_(std::move(name)) {}

  /// Load (or swap) the pipeline program. Non-owning.
  void load_program(P4Program& program) { program_ = &program; }

  /// `sim_` is the clock the frame is delivered on — the site's
  /// timeline, or a fabric shard's advanced to the frame's delivery
  /// time — so ingress_ts is the same on either path. `wire_len` is
  /// unused: the pipeline only looks at the parsed bytes.
  void on_mirrored_bytes(std::span<const std::uint8_t> bytes,
                         net::MirrorPoint point,
                         std::uint32_t wire_len) override;

  std::uint64_t processed_pkts() const { return processed_; }
  std::uint64_t parse_errors() const { return parse_errors_; }
  const std::string& name() const { return name_; }

 private:
  sim::Simulation& sim_;
  std::string name_;
  P4Program* program_ = nullptr;
  std::uint64_t processed_ = 0;
  std::uint64_t parse_errors_ = 0;
};

}  // namespace p4s::p4
