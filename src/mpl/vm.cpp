#include "mpl/vm.hpp"

#include <stdexcept>
#include <utility>

#include "controlplane/control_plane.hpp"

namespace p4s::mpl {

ProgramVm::ProgramVm() : ProgramVm(Config{}) {}

ProgramVm::ProgramVm(Config config) : config_(config) {}

std::size_t ProgramVm::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < programs_.size(); ++i) {
    if (programs_[i]->program.name == name) return i;
  }
  return programs_.size();
}

const Program* ProgramVm::find(std::string_view name) const {
  const std::size_t i = index_of(name);
  return i < programs_.size() ? &programs_[i]->program : nullptr;
}

void ProgramVm::bind(cp::ControlPlane& cp) {
  if (cp_ != nullptr) {
    throw std::logic_error("ProgramVm: already bound to a control plane");
  }
  cp_ = &cp;
  cp.register_digest_source([this](SimTime) {
    std::vector<util::Json> docs;
    for (const ProgramDigest& d : drain_digests()) {
      util::Json j = util::Json::object();
      j["report"] = "program_digest";
      j["program"] = d.program;
      j["ts_ns"] = static_cast<std::int64_t>(d.at);
      j["flow_id"] = static_cast<std::int64_t>(d.flow_id);
      j["slot"] = static_cast<std::int64_t>(d.slot);
      j["value"] = static_cast<std::int64_t>(d.value);
      docs.push_back(std::move(j));
    }
    return docs;
  });
  for (auto& p : programs_) register_export(*p);
}

void ProgramVm::install(Program program) {
  const std::size_t existing = index_of(program.name);
  const bool replacing = existing < programs_.size();
  const std::size_t freed_rows =
      replacing && programs_[existing]->program.scope == Scope::kFlow
          ? programs_[existing]->program.registers
          : 0;
  const std::size_t wanted_rows =
      program.scope == Scope::kFlow ? program.registers : 0;
  if (rows_in_use_ - freed_rows + wanted_rows > config_.row_budget) {
    throw std::invalid_argument(
        "program '" + program.name + "': register-row budget exceeded (" +
        std::to_string(rows_in_use_ - freed_rows) + " in use + " +
        std::to_string(wanted_rows) + " wanted > " +
        std::to_string(config_.row_budget) + ")");
  }
  // Metric-name collision check BEFORE any state changes so a failed
  // install leaves both the VM and the extractor table untouched.
  if (cp_ != nullptr && program.export_spec.has_value()) {
    const std::string& metric = program.export_spec->metric;
    const bool own_metric =
        replacing && programs_[existing]->program.export_spec.has_value() &&
        programs_[existing]->program.export_spec->metric == metric;
    if (!own_metric && cp_->has_extractor(metric)) {
      throw std::invalid_argument("program '" + program.name +
                                  "': export metric '" + metric +
                                  "' collides with an existing extractor");
    }
  }

  auto inst = std::make_unique<Installed>();
  inst->program = std::move(program);
  const std::size_t cells =
      inst->program.scope == Scope::kFlow ? telemetry::kFlowSlots : 1;
  inst->rows.reserve(inst->program.registers);
  for (std::size_t r = 0; r < inst->program.registers; ++r) {
    inst->rows.emplace_back(cells);
  }
  if (inst->program.histogram.has_value()) {
    inst->hist = std::make_unique<sketch::Histogram>(*inst->program.histogram);
  }
  inst->export_state.resize(cells);

  if (replacing) {
    Installed& old = *programs_[existing];
    if (cp_ != nullptr && old.program.export_spec.has_value()) {
      cp_->unregister_extractor(old.program.export_spec->metric);
    }
    rows_in_use_ -= freed_rows;
    programs_[existing] = std::move(inst);
    rows_in_use_ += wanted_rows;
    register_export(*programs_[existing]);
  } else {
    programs_.push_back(std::move(inst));
    rows_in_use_ += wanted_rows;
    register_export(*programs_.back());
  }
}

bool ProgramVm::remove(std::string_view name) {
  const std::size_t i = index_of(name);
  if (i >= programs_.size()) return false;
  Installed& p = *programs_[i];
  if (cp_ != nullptr && p.program.export_spec.has_value()) {
    cp_->unregister_extractor(p.program.export_spec->metric);
  }
  if (p.program.scope == Scope::kFlow) rows_in_use_ -= p.program.registers;
  programs_.erase(programs_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

void ProgramVm::register_export(Installed& p) {
  if (cp_ == nullptr || !p.program.export_spec.has_value()) return;
  const ExportSpec& spec = *p.program.export_spec;
  cp::ControlPlane::MetricExtractor ex;
  ex.name = spec.metric;
  ex.value_key = spec.value_key;
  // The closure captures the Installed by pointer — stable across
  // installs (unique_ptr storage) and released by unregister_extractor
  // before the Installed dies.
  Installed* ptr = &p;
  if (p.program.scope == Scope::kFlow) {
    ex.read = [this, ptr](std::uint16_t slot,
                          cp::ControlPlane::FlowState& state, SimTime now) {
      return read_export(*ptr, slot, state.detected_at, now);
    };
  } else {
    ex.read_switch = [this, ptr](SimTime now) {
      return read_export(*ptr, 0, 0, now);
    };
  }
  cp::MetricConfig mc;
  mc.interval = units::seconds_f(1.0 / spec.samples_per_second);
  cp_->register_extractor(std::move(ex), mc);
}

double ProgramVm::read_export(Installed& p, std::size_t cell,
                              SimTime detected_at, SimTime now) {
  const ExportValue& value = p.program.export_spec->value;
  ExportState& es = p.export_state[cell];
  switch (value.kind) {
    case ExportValue::Kind::kRegister:
      return static_cast<double>(p.rows[value.reg].cp_read(cell));
    case ExportValue::Kind::kQuantile:
      return p.hist->quantile(value.quantile);
    case ExportValue::Kind::kRatePerSec:
    case ExportValue::Kind::kRateBps: {
      // The builtin throughput reader's arithmetic, verbatim: first tick
      // rates from the flow's detection time, dt == 0 keeps the last
      // value. Bit-for-bit equal inputs give bit-for-bit equal doubles —
      // that is the byte-identity contract of the shipped byte-counter
      // port (tests/program_vm_identity_test).
      const std::uint64_t v = p.rows[value.reg].cp_read(cell);
      const SimTime prev_at = es.prev_at ? es.prev_at : detected_at;
      const double dt = units::to_seconds(now - prev_at);
      if (dt > 0.0) {
        const double scale =
            value.kind == ExportValue::Kind::kRateBps ? 8.0 : 1.0;
        es.last = static_cast<double>(v - es.prev) * scale / dt;
      }
      es.prev = v;
      es.prev_at = now;
      return es.last;
    }
  }
  return 0.0;
}

bool ProgramVm::matches(const Program& program,
                        const telemetry::FieldView& view) {
  for (const Condition& cond : program.match) {
    const std::uint64_t v = view.get(cond.field);
    bool ok = false;
    switch (cond.cmp) {
      case Cmp::kEq: ok = v == cond.value; break;
      case Cmp::kNe: ok = v != cond.value; break;
      case Cmp::kLt: ok = v < cond.value; break;
      case Cmp::kLe: ok = v <= cond.value; break;
      case Cmp::kGt: ok = v > cond.value; break;
      case Cmp::kGe: ok = v >= cond.value; break;
    }
    if (!ok) return false;
  }
  return true;
}

void ProgramVm::run_ops(Installed& p, std::size_t cell,
                        const telemetry::FieldView& view, SimTime now) {
  ++p.matched;
  for (const Op& op : p.program.ops) {
    const std::uint64_t src =
        op.kind == OpKind::kCount
            ? 1
            : (op.src.is_field ? view.get(op.src.field) : op.src.imm);
    switch (op.kind) {
      case OpKind::kCount:
        p.rows[op.dst].execute(cell, [](std::uint64_t& v) { return ++v; });
        break;
      case OpKind::kAdd:
        p.rows[op.dst].execute(cell,
                               [src](std::uint64_t& v) { return v += src; });
        break;
      case OpKind::kMin:
        p.rows[op.dst].execute(cell, [src](std::uint64_t& v) {
          if (v == 0 || src < v) v = src;
          return v;
        });
        break;
      case OpKind::kMax:
        p.rows[op.dst].execute(cell, [src](std::uint64_t& v) {
          if (src > v) v = src;
          return v;
        });
        break;
      case OpKind::kSet:
        p.rows[op.dst].write(cell, src);
        break;
      case OpKind::kEwma:
        p.rows[op.dst].execute(cell, [src, w = op.ewma_weight](
                                         std::uint64_t& v) {
          v = v == 0 ? src : ((w - 1) * v + src) / w;
          return v;
        });
        break;
      case OpKind::kHistogramBin:
        p.hist->add(static_cast<double>(src));
        break;
    }
  }
  if (p.program.digest.every > 0 &&
      ++p.digest_countdown >= p.program.digest.every) {
    p.digest_countdown = 0;
    if (digests_.size() >= kDigestCapacity) {
      ++digests_dropped_;
      return;
    }
    ProgramDigest d;
    d.program = p.program.name;
    if (p.program.scope == Scope::kFlow) {
      d.flow_id = view.flow_id();
      d.slot = static_cast<std::uint16_t>(cell);
    }
    d.value = p.rows[p.program.digest.reg].read(cell);
    d.at = now;
    digests_.push_back(std::move(d));
  }
}

void ProgramVm::on_packet(const telemetry::FieldView& view) {
  for (auto& p : programs_) {
    if (p->program.scope != Scope::kSwitch) continue;
    if (!matches(p->program, view)) continue;
    run_ops(*p, 0, view, view.ingress_ts());
  }
}

void ProgramVm::on_tracked_data(std::uint16_t slot,
                                const telemetry::FieldView& view) {
  for (auto& p : programs_) {
    if (p->program.scope != Scope::kFlow) continue;
    if (!matches(p->program, view)) continue;
    run_ops(*p, slot, view, view.ingress_ts());
  }
}

void ProgramVm::clear_slot(std::uint16_t slot) {
  for (auto& p : programs_) {
    if (p->program.scope != Scope::kFlow) continue;
    for (auto& row : p->rows) row.cp_write(slot, 0);
    p->export_state[slot] = ExportState{};
  }
}

bool ProgramVm::slot_cleared(std::uint16_t slot) const {
  for (const auto& p : programs_) {
    if (p->program.scope != Scope::kFlow) continue;
    for (const auto& row : p->rows) {
      if (row.cp_read(slot) != 0) return false;
    }
    const ExportState& es = p->export_state[slot];
    if (es.prev != 0 || es.prev_at != 0 || es.last != 0.0) return false;
  }
  return true;
}

std::vector<ProgramDigest> ProgramVm::drain_digests() {
  std::vector<ProgramDigest> out(
      std::make_move_iterator(digests_.begin()),
      std::make_move_iterator(digests_.end()));
  digests_.clear();
  return out;
}

std::uint64_t ProgramVm::reg(std::string_view program, std::uint8_t r,
                             std::uint16_t slot) const {
  const std::size_t i = index_of(program);
  if (i >= programs_.size()) {
    throw std::invalid_argument("unknown program: " + std::string(program));
  }
  const Installed& p = *programs_[i];
  if (r >= p.rows.size()) {
    throw std::invalid_argument("program '" + std::string(program) +
                                "': no register " + std::to_string(r));
  }
  const std::size_t cell = p.program.scope == Scope::kFlow ? slot : 0;
  return p.rows[r].cp_read(cell);
}

const sketch::Histogram* ProgramVm::histogram(
    std::string_view program) const {
  const std::size_t i = index_of(program);
  if (i >= programs_.size()) {
    throw std::invalid_argument("unknown program: " + std::string(program));
  }
  return programs_[i]->hist.get();
}

std::uint64_t ProgramVm::matched(std::string_view program) const {
  const std::size_t i = index_of(program);
  if (i >= programs_.size()) {
    throw std::invalid_argument("unknown program: " + std::string(program));
  }
  return programs_[i]->matched;
}

}  // namespace p4s::mpl
