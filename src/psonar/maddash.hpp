// MaDDash emulation — the Monitoring and Debugging Dashboard from the
// perfSONAR suite (Figure 2). MaDDash renders a src x dst grid per
// measurement type, coloring each cell by threshold checks against the
// archived results. This implementation builds those grids straight from
// the archiver's pscheduler indices and renders them as text.
#pragma once

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "psonar/archiver.hpp"

namespace p4s::ps {

class MadDash {
 public:
  enum class Status { kOk, kWarn, kCritical, kNoData };

  struct Cell {
    Status status = Status::kNoData;
    double value = 0.0;  // latest archived value for the pair
    std::uint64_t samples = 0;
  };

  struct Grid {
    std::string title;
    std::string unit;
    std::vector<std::string> rows;  // sources
    std::vector<std::string> cols;  // destinations
    std::map<std::pair<std::string, std::string>, Cell> cells;

    const Cell* cell(const std::string& src, const std::string& dst) const {
      auto it = cells.find({src, dst});
      return it == cells.end() ? nullptr : &it->second;
    }
  };

  explicit MadDash(const Archiver& archiver) : archiver_(archiver) {}

  /// Throughput grid from "pscheduler-throughput": ok when the latest
  /// average is >= `warn_below_bps`, warn when >= `crit_below_bps`,
  /// critical below that.
  Grid throughput_grid(double warn_below_bps, double crit_below_bps) const;

  /// Loss grid from "pscheduler-latency" (ping): percentage of lost
  /// echoes; ok below warn, critical above crit.
  Grid loss_grid(double warn_above_pct, double crit_above_pct) const;

  /// One-way-delay grid from "pscheduler-latencybg" (owping): mean OWD in
  /// ms with thresholds above which the pair warns / goes critical.
  Grid owd_grid(double warn_above_ms, double crit_above_ms) const;

  /// Per-site P4 throughput grid from "p4sonar-throughput": one row per
  /// monitored switch (the report's "switch_id"; untagged legacy reports
  /// show as "core"), one column per flow destination. Thresholds as in
  /// throughput_grid().
  Grid site_grid(double warn_below_bps, double crit_below_bps) const;

  /// Render a grid as an aligned ASCII table with status glyphs
  /// (OK / WARN / CRIT / '-').
  static void render(const Grid& grid, std::ostream& out);

  static const char* status_name(Status status);

 private:
  /// The grid of `index`: `read` turns a document into its (src, dst,
  /// value) cell reading, or nullopt to skip it; the newest reading per
  /// cell is graded against `warn`/`crit`.
  template <typename Read>
  Grid build(const std::string& index, const std::string& title,
             const std::string& unit, Read&& read, double warn, double crit,
             bool higher_is_worse) const;

  const Archiver& archiver_;
};

}  // namespace p4s::ps
