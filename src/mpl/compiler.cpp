#include "mpl/compiler.hpp"

#include <cmath>
#include <stdexcept>

#include "util/json_path.hpp"

namespace p4s::mpl {

namespace {

const util::JsonPathReader reader("program");

std::string child(const std::string& parent, const std::string& key) {
  return util::JsonPathReader::child(parent, key);
}

std::uint8_t register_index(const util::Json& v, const std::string& path) {
  const std::uint64_t reg = reader.unsigned_int(v, path);
  if (reg >= kMaxRegisters) {
    reader.fail(path,
                "must be a register index < " + std::to_string(kMaxRegisters));
  }
  return static_cast<std::uint8_t>(reg);
}

const util::JsonObject& object(const util::Json& v, const std::string& path) {
  if (!v.is_object()) reader.fail(path, "must be an object");
  return v.as_object();
}

Condition parse_condition(const util::Json& entry,
                          const std::string& where) {
  Condition cond;
  bool has_field = false;
  bool has_value = false;
  for (const auto& [k, v] : object(entry, where)) {
    const std::string path = child(where, k);
    if (k == "field") {
      cond.field = reader.name(v, path, telemetry::field_from_name);
      has_field = true;
    } else if (k == "cmp") {
      cond.cmp = reader.name(v, path, cmp_from_name);
    } else if (k == "value") {
      cond.value = reader.unsigned_int(v, path);
      has_value = true;
    } else {
      reader.fail(path, "is not a known match key");
    }
  }
  if (!has_field) reader.fail(where, "needs 'field'");
  if (!has_value) reader.fail(where, "needs 'value'");
  return cond;
}

Op parse_op(const util::Json& entry, const std::string& where) {
  Op op;
  bool has_kind = false;
  bool has_dst = false;
  bool has_src = false;
  bool has_weight = false;
  for (const auto& [k, v] : object(entry, where)) {
    const std::string path = child(where, k);
    if (k == "op") {
      op.kind = reader.name(v, path, op_from_name);
      has_kind = true;
    } else if (k == "dst") {
      op.dst = register_index(v, path);
      has_dst = true;
    } else if (k == "field") {
      if (has_src) reader.fail(path, "conflicts with 'imm' (pick one source)");
      op.src.field = reader.name(v, path, telemetry::field_from_name);
      op.src.is_field = true;
      has_src = true;
    } else if (k == "imm") {
      if (has_src) {
        reader.fail(path, "conflicts with 'field' (pick one source)");
      }
      op.src.imm = reader.unsigned_int(v, path);
      op.src.is_field = false;
      has_src = true;
    } else if (k == "weight") {
      const std::uint64_t w = reader.unsigned_int(v, path);
      if (w < 2 || w > 1024) reader.fail(path, "must be an integer in 2..1024");
      op.ewma_weight = static_cast<std::uint32_t>(w);
      has_weight = true;
    } else {
      reader.fail(path, "is not a known op key");
    }
  }
  if (!has_kind) reader.fail(where, "needs 'op'");
  const bool needs_src =
      op.kind != OpKind::kCount;  // count has an implicit +1 source
  if (needs_src && !has_src) {
    reader.fail(where, "needs a 'field' or 'imm' source for op '" +
                           std::string(to_string(op.kind)) + "'");
  }
  const bool needs_dst = op.kind != OpKind::kHistogramBin;
  if (needs_dst && !has_dst) reader.fail(where, "needs 'dst'");
  if (has_weight && op.kind != OpKind::kEwma) {
    reader.fail(child(where, "weight"), "only applies to op 'ewma'");
  }
  return op;
}

sketch::HistogramConfig parse_histogram(const util::Json& obj,
                                        const std::string& where) {
  sketch::HistogramConfig hc;
  for (const auto& [k, v] : object(obj, where)) {
    const std::string path = child(where, k);
    if (k == "scale") {
      hc.scale = reader.name(v, path, sketch::histogram_scale_from_name);
    } else if (k == "min") {
      hc.min = reader.number(v, path);
    } else if (k == "max") {
      hc.max = reader.number(v, path);
    } else if (k == "bins") {
      const std::uint64_t bins = reader.unsigned_int(v, path);
      if (bins == 0) reader.fail(path, "must be a positive integer");
      hc.bins = static_cast<std::size_t>(bins);
    } else {
      reader.fail(path, "is not a known histogram key");
    }
  }
  if (!(hc.min > 0.0 && hc.min < hc.max)) {
    reader.fail(where, "bin range must satisfy 0 < min < max");
  }
  return hc;
}

ExportSpec parse_export(const util::Json& obj, const std::string& where) {
  ExportSpec spec;
  for (const auto& [k, v] : object(obj, where)) {
    const std::string path = child(where, k);
    if (k == "metric") {
      spec.metric = reader.string(v, path);
      if (spec.metric.empty()) reader.fail(path, "must not be empty");
    } else if (k == "value_key") {
      spec.value_key = reader.string(v, path);
      if (spec.value_key.empty()) reader.fail(path, "must not be empty");
    } else if (k == "value") {
      const std::string& kind = reader.string(v, path);
      if (kind == "register") {
        spec.value.kind = ExportValue::Kind::kRegister;
      } else if (kind == "rate_per_s") {
        spec.value.kind = ExportValue::Kind::kRatePerSec;
      } else if (kind == "rate_bps") {
        spec.value.kind = ExportValue::Kind::kRateBps;
      } else if (kind == "quantile") {
        spec.value.kind = ExportValue::Kind::kQuantile;
      } else {
        reader.fail(path,
                    "must be 'register', 'rate_per_s', 'rate_bps' or "
                    "'quantile'");
      }
    } else if (k == "register") {
      spec.value.reg = register_index(v, path);
    } else if (k == "quantile") {
      spec.value.quantile = reader.fraction(v, path);
    } else if (k == "samples_per_second") {
      const double sps = reader.number(v, path);
      if (!std::isfinite(sps) || sps <= 0.0) {
        reader.fail(path, "must be a finite value > 0");
      }
      spec.samples_per_second = sps;
    } else {
      reader.fail(path, "is not a known export key");
    }
  }
  if (spec.metric.empty()) reader.fail(where, "needs 'metric'");
  return spec;
}

DigestSpec parse_digest(const util::Json& obj, const std::string& where) {
  DigestSpec spec;
  for (const auto& [k, v] : object(obj, where)) {
    const std::string path = child(where, k);
    if (k == "every") {
      const std::uint64_t every = reader.unsigned_int(v, path);
      if (every == 0) reader.fail(path, "must be a positive integer");
      spec.every = static_cast<std::uint32_t>(every);
    } else if (k == "register") {
      spec.reg = register_index(v, path);
    } else {
      reader.fail(path, "is not a known digest key");
    }
  }
  if (spec.every == 0) reader.fail(where, "needs 'every'");
  return spec;
}

}  // namespace

const char* to_string(Cmp cmp) {
  switch (cmp) {
    case Cmp::kEq: return "eq";
    case Cmp::kNe: return "ne";
    case Cmp::kLt: return "lt";
    case Cmp::kLe: return "le";
    case Cmp::kGt: return "gt";
    case Cmp::kGe: return "ge";
  }
  return "?";
}

Cmp cmp_from_name(const std::string& name) {
  for (const Cmp cmp : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt,
                        Cmp::kGe}) {
    if (name == to_string(cmp)) return cmp;
  }
  throw std::invalid_argument("unknown cmp: " + name);
}

const char* to_string(OpKind kind) {
  switch (kind) {
    case OpKind::kCount: return "count";
    case OpKind::kAdd: return "add";
    case OpKind::kMin: return "min";
    case OpKind::kMax: return "max";
    case OpKind::kSet: return "set";
    case OpKind::kEwma: return "ewma";
    case OpKind::kHistogramBin: return "histogram_bin";
  }
  return "?";
}

OpKind op_from_name(const std::string& name) {
  for (const OpKind kind :
       {OpKind::kCount, OpKind::kAdd, OpKind::kMin, OpKind::kMax,
        OpKind::kSet, OpKind::kEwma, OpKind::kHistogramBin}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown op: " + name);
}

const char* to_string(Scope scope) {
  return scope == Scope::kFlow ? "flow" : "switch";
}

Scope scope_from_name(const std::string& name) {
  if (name == "flow") return Scope::kFlow;
  if (name == "switch") return Scope::kSwitch;
  throw std::invalid_argument("unknown scope: " + name);
}

Program compile_program(const util::Json& doc, const std::string& path) {
  const std::string where = path.empty() ? "program" : path;
  Program program;
  bool has_histogram = false;
  for (const auto& [k, v] : object(doc, where)) {
    const std::string key_path = child(path, k);
    if (k == "name") {
      program.name = reader.string(v, key_path);
      if (program.name.empty()) reader.fail(key_path, "must not be empty");
    } else if (k == "scope") {
      program.scope = reader.name(v, key_path, scope_from_name);
    } else if (k == "match") {
      const auto& entries = reader.array(v, key_path);
      if (entries.size() > kMaxMatch) {
        reader.fail(key_path, "has too many conditions (max " +
                                  std::to_string(kMaxMatch) + ")");
      }
      for (std::size_t i = 0; i < entries.size(); ++i) {
        program.match.push_back(parse_condition(
            entries[i], util::JsonPathReader::element(key_path, i)));
      }
    } else if (k == "ops") {
      const auto& entries = reader.array(v, key_path);
      if (entries.size() > kMaxOps) {
        reader.fail(key_path,
                    "has too many ops (max " + std::to_string(kMaxOps) + ")");
      }
      for (std::size_t i = 0; i < entries.size(); ++i) {
        program.ops.push_back(parse_op(
            entries[i], util::JsonPathReader::element(key_path, i)));
      }
    } else if (k == "histogram") {
      program.histogram = parse_histogram(v, key_path);
      has_histogram = true;
    } else if (k == "export") {
      program.export_spec = parse_export(v, key_path);
    } else if (k == "digest") {
      program.digest = parse_digest(v, key_path);
    } else {
      reader.fail(key_path, "is not a known program key");
    }
  }

  if (program.name.empty()) reader.fail(where, "needs 'name'");
  if (program.ops.empty()) reader.fail(where, "needs at least one op");

  // Register-file sizing: highest dst (and export source) + 1.
  std::uint8_t registers = 0;
  bool uses_histogram = false;
  for (const Op& op : program.ops) {
    if (op.kind == OpKind::kHistogramBin) {
      uses_histogram = true;
      continue;
    }
    registers = std::max<std::uint8_t>(
        registers, static_cast<std::uint8_t>(op.dst + 1));
  }
  program.registers = registers;

  if (uses_histogram && !has_histogram) {
    reader.fail(where,
                "uses op 'histogram_bin' but has no 'histogram' section");
  }
  if (!uses_histogram && has_histogram) {
    reader.fail(child(path, "histogram"),
                "is present but no op is 'histogram_bin'");
  }
  if (uses_histogram && program.scope != Scope::kSwitch) {
    reader.fail(where,
                "op 'histogram_bin' requires scope 'switch' (the histogram "
                "summarizes the link, not one flow slot)");
  }

  if (program.export_spec.has_value()) {
    const ExportSpec& spec = *program.export_spec;
    if (spec.value.kind == ExportValue::Kind::kQuantile) {
      if (!uses_histogram) {
        reader.fail(child(path, "export"),
                    "exports a quantile but the program has no histogram");
      }
    } else if (spec.value.reg >= program.registers) {
      reader.fail(child(path, "export.register"),
                  "names register " + std::to_string(spec.value.reg) +
                      " but the program only writes registers 0.." +
                      std::to_string(program.registers - 1));
    }
  }
  if (program.digest.every > 0 && program.digest.reg >= program.registers) {
    reader.fail(child(path, "digest.register"),
                "names register " + std::to_string(program.digest.reg) +
                    " but the program only writes registers 0.." +
                    (program.registers > 0
                         ? std::to_string(program.registers - 1)
                         : std::string("none")));
  }
  return program;
}

Program compile_program_text(const std::string& text,
                             const std::string& path) {
  return compile_program(util::Json::parse(text), path);
}

util::Json program_to_json(const Program& program) {
  util::Json doc = util::Json::object();
  doc["name"] = program.name;
  doc["scope"] = to_string(program.scope);
  if (!program.match.empty()) {
    util::Json match = util::Json::array();
    for (const Condition& cond : program.match) {
      util::Json c = util::Json::object();
      c["field"] = telemetry::field_name(cond.field);
      c["cmp"] = to_string(cond.cmp);
      c["value"] = static_cast<std::int64_t>(cond.value);
      match.as_array().push_back(std::move(c));
    }
    doc["match"] = std::move(match);
  }
  util::Json ops = util::Json::array();
  for (const Op& op : program.ops) {
    util::Json o = util::Json::object();
    o["op"] = to_string(op.kind);
    if (op.kind != OpKind::kHistogramBin) {
      o["dst"] = static_cast<std::int64_t>(op.dst);
    }
    if (op.kind != OpKind::kCount) {
      if (op.src.is_field) {
        o["field"] = telemetry::field_name(op.src.field);
      } else {
        o["imm"] = static_cast<std::int64_t>(op.src.imm);
      }
    }
    if (op.kind == OpKind::kEwma) {
      o["weight"] = static_cast<std::int64_t>(op.ewma_weight);
    }
    ops.as_array().push_back(std::move(o));
  }
  doc["ops"] = std::move(ops);
  if (program.histogram.has_value()) {
    util::Json h = util::Json::object();
    h["scale"] = sketch::to_string(program.histogram->scale);
    h["min"] = program.histogram->min;
    h["max"] = program.histogram->max;
    h["bins"] = static_cast<std::int64_t>(program.histogram->bins);
    doc["histogram"] = std::move(h);
  }
  if (program.export_spec.has_value()) {
    const ExportSpec& spec = *program.export_spec;
    util::Json e = util::Json::object();
    e["metric"] = spec.metric;
    e["value_key"] = spec.value_key;
    switch (spec.value.kind) {
      case ExportValue::Kind::kRegister: e["value"] = "register"; break;
      case ExportValue::Kind::kRatePerSec: e["value"] = "rate_per_s"; break;
      case ExportValue::Kind::kRateBps: e["value"] = "rate_bps"; break;
      case ExportValue::Kind::kQuantile: e["value"] = "quantile"; break;
    }
    if (spec.value.kind == ExportValue::Kind::kQuantile) {
      e["quantile"] = spec.value.quantile;
    } else {
      e["register"] = static_cast<std::int64_t>(spec.value.reg);
    }
    e["samples_per_second"] = spec.samples_per_second;
    doc["export"] = std::move(e);
  }
  if (program.digest.every > 0) {
    util::Json d = util::Json::object();
    d["every"] = static_cast<std::int64_t>(program.digest.every);
    d["register"] = static_cast<std::int64_t>(program.digest.reg);
    doc["digest"] = std::move(d);
  }
  return doc;
}

}  // namespace p4s::mpl
