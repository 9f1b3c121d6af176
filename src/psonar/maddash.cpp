#include "psonar/maddash.hpp"

#include <algorithm>
#include <optional>
#include <set>

namespace p4s::ps {

const char* MadDash::status_name(Status status) {
  switch (status) {
    case Status::kOk: return "OK";
    case Status::kWarn: return "WARN";
    case Status::kCritical: return "CRIT";
    case Status::kNoData: return "-";
  }
  return "?";
}

namespace {

/// One archived document's contribution to a grid: its cell and value.
struct Reading {
  std::string src;
  std::string dst;
  double value = 0.0;
};

/// The reading of a pscheduler document: "source" x "destination",
/// valued by the numeric `field`.
std::optional<Reading> pair_reading(const util::Json& doc,
                                    const std::string& field) {
  const auto src = Archiver::field_at(doc, "source");
  const auto dst = Archiver::field_at(doc, "destination");
  const auto value = Archiver::field_at(doc, field);
  if (!src || !dst || !value || !value->is_number()) return std::nullopt;
  return Reading{src->as_string(), dst->as_string(), value->as_double()};
}

/// Two-threshold check. kCritical past `crit`, kWarn past `warn`, where
/// "past" means above when higher values are worse, below otherwise.
MadDash::Status grade(double value, double warn, double crit,
                      bool higher_is_worse) {
  const auto past = [&](double limit) {
    return higher_is_worse ? value > limit : value < limit;
  };
  if (past(crit)) return MadDash::Status::kCritical;
  if (past(warn)) return MadDash::Status::kWarn;
  return MadDash::Status::kOk;
}

}  // namespace

template <typename Read>
MadDash::Grid MadDash::build(const std::string& index,
                             const std::string& title,
                             const std::string& unit, Read&& read,
                             double warn, double crit,
                             bool higher_is_worse) const {
  Grid grid;
  grid.title = title;
  grid.unit = unit;
  std::set<std::string> rows, cols;
  // Newest first, without copying the index: the first doc seen for a
  // pair is its latest value; older docs only bump the sample count.
  Archiver::Query newest;
  newest.newest_first = true;
  archiver_.for_each(index, newest, [&](const util::Json& doc) {
    const std::optional<Reading> reading = read(doc);
    if (!reading) return true;
    rows.insert(reading->src);
    cols.insert(reading->dst);
    Cell& cell = grid.cells[{reading->src, reading->dst}];
    if (cell.samples == 0) {
      cell.value = reading->value;
      cell.status = grade(cell.value, warn, crit, higher_is_worse);
    }
    ++cell.samples;
    return true;
  });
  grid.rows.assign(rows.begin(), rows.end());
  grid.cols.assign(cols.begin(), cols.end());
  return grid;
}

MadDash::Grid MadDash::throughput_grid(double warn_below_bps,
                                       double crit_below_bps) const {
  return build(
      "pscheduler-throughput", "throughput (iperf3)", "Mbps",
      [](const util::Json& doc) { return pair_reading(doc, "throughput_bps"); },
      warn_below_bps, crit_below_bps, /*higher_is_worse=*/false);
}

MadDash::Grid MadDash::loss_grid(double warn_above_pct,
                                 double crit_above_pct) const {
  // Loss derives from sent/received of the latest latency doc per pair.
  const auto read = [](const util::Json& doc) -> std::optional<Reading> {
    const auto src = Archiver::field_at(doc, "source");
    const auto dst = Archiver::field_at(doc, "destination");
    const auto sent = Archiver::field_at(doc, "sent");
    const auto received = Archiver::field_at(doc, "received");
    if (!src || !dst || !sent || !received) return std::nullopt;
    const double total = sent->as_double();
    if (total <= 0) return std::nullopt;
    return Reading{src->as_string(), dst->as_string(),
                   100.0 * (total - received->as_double()) / total};
  };
  return build("pscheduler-latency", "echo loss (ping)", "%", read,
               warn_above_pct, crit_above_pct, /*higher_is_worse=*/true);
}

MadDash::Grid MadDash::owd_grid(double warn_above_ms,
                                double crit_above_ms) const {
  return build(
      "pscheduler-latencybg", "one-way delay (owping)", "ms",
      [](const util::Json& doc) { return pair_reading(doc, "mean_owd_ms"); },
      warn_above_ms, crit_above_ms, /*higher_is_worse=*/true);
}

MadDash::Grid MadDash::site_grid(double warn_below_bps,
                                 double crit_below_bps) const {
  const auto read = [](const util::Json& doc) -> std::optional<Reading> {
    const auto site = Archiver::field_at(doc, "switch_id");
    const auto dst = Archiver::field_at(doc, "flow.dst_ip");
    const auto value = Archiver::field_at(doc, "throughput_bps");
    if (!dst || !value || !value->is_number()) return std::nullopt;
    return Reading{site && site->is_string() && !site->as_string().empty()
                       ? site->as_string()
                       : "core",
                   dst->as_string(), value->as_double()};
  };
  return build("p4sonar-throughput", "P4 throughput by site", "Mbps", read,
               warn_below_bps, crit_below_bps, /*higher_is_worse=*/false);
}

void MadDash::render(const Grid& grid, std::ostream& out) {
  out << "== MaDDash: " << grid.title << " (" << grid.unit << ") ==\n";
  if (grid.cells.empty()) {
    out << "(no data)\n";
    return;
  }
  std::size_t row_width = 8;
  for (const auto& r : grid.rows) row_width = std::max(row_width, r.size());
  out << std::string(row_width, ' ');
  for (const auto& c : grid.cols) {
    out << "  " << c;
  }
  out << "\n";
  for (const auto& r : grid.rows) {
    out << r << std::string(row_width - r.size(), ' ');
    for (const auto& c : grid.cols) {
      const Cell* cell = grid.cell(r, c);
      char buf[48];
      if (cell == nullptr) {
        std::snprintf(buf, sizeof buf, "%*s", static_cast<int>(c.size()),
                      "-");
      } else {
        const double shown = grid.unit == "Mbps" ? cell->value / 1e6
                                                 : cell->value;
        std::snprintf(buf, sizeof buf, "%*s", static_cast<int>(c.size()),
                      (std::string(status_name(cell->status)) + ":" +
                       [&] {
                         char v[16];
                         std::snprintf(v, sizeof v, "%.1f", shown);
                         return std::string(v);
                       }())
                          .c_str());
      }
      out << "  " << buf;
    }
    out << "\n";
  }
}

}  // namespace p4s::ps
