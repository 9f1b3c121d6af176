#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace p4s::util {

std::int64_t Json::as_int() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* d = std::get_if<double>(&value_)) {
    // int64 holds [-2^63, 2^63); casting anything else (or NaN) is UB.
    if (!(*d >= -0x1p63 && *d < 0x1p63)) {
      throw JsonError("Json: number out of int64 range");
    }
    return static_cast<std::int64_t>(*d);
  }
  throw JsonError("Json: not a number");
}

double Json::as_double() const {
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  throw JsonError("Json: not a number");
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("Json: missing key '" + key + "'");
  return it->second;
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

std::optional<Json> Json::find(const std::string& key) const {
  if (!is_object()) return std::nullopt;
  auto it = as_object().find(key);
  if (it == as_object().end()) return std::nullopt;
  return it->second;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  throw JsonError("Json: size() on non-container");
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          std::array<char, 8> buf{};
          std::snprintf(buf.data(), buf.size(), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf.data();
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void number_to(std::string& out, double d) {
  if (std::isnan(d) || std::isinf(d)) {
    // JSON has no NaN/Inf; emit null so documents stay parseable.
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  (void)ec;
  out.append(buf.data(), ptr);
}

struct Dumper {
  int indent;
  std::string out;

  void newline(int depth) {
    if (indent <= 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * depth), ' ');
  }

  void dump(const Json& j, int depth) {
    if (j.is_null()) {
      out += "null";
    } else if (j.is_bool()) {
      out += j.as_bool() ? "true" : "false";
    } else if (j.is_int()) {
      out += std::to_string(j.as_int());
    } else if (j.is_double()) {
      number_to(out, j.as_double());
    } else if (j.is_string()) {
      escape_to(out, j.as_string());
    } else if (j.is_array()) {
      const auto& arr = j.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& el : arr) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump(el, depth + 1);
      }
      newline(depth);
      out.push_back(']');
    } else {
      const auto& obj = j.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        escape_to(out, k);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        dump(v, depth + 1);
      }
      newline(depth);
      out.push_back('}');
    }
  }
};

struct Parser {
  // Containers nest by recursion, so deeper input is refused instead of
  // exhausting the stack. Shipped documents nest fewer than 10 levels.
  static constexpr int kMaxDepth = 256;

  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw JsonError("Json parse error at offset " + std::to_string(pos) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  char next() {
    char c = peek();
    ++pos;
    return c;
  }

  void expect(char c) {
    if (next() != c) {
      --pos;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) == lit) {
      pos += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') {
        --pos;
        fail("expected ',' or '}'");
      }
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') {
        --pos;
        fail("expected ',' or ']'");
      }
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') break;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs are rare in
            // telemetry; encode them as-is per WTF-8 for robustness).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Json parse_number() {
    std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    bool is_float = false;
    while (pos < text.size()) {
      char c = text[pos];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '+'/'-' only valid inside exponents, but to_chars below rejects
        // malformed sequences anyway.
        is_float = (c == '.' || c == 'e' || c == 'E') || is_float;
        ++pos;
      } else {
        break;
      }
    }
    if (pos == start) fail("expected a value");
    std::string_view tok = text.substr(start, pos - start);
    if (!is_float) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(v);
      // Fall through: integer overflow -> parse as double.
    }
    double d = 0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) fail("bad number");
    return Json(d);
  }
};

}  // namespace

std::string Json::dump(int indent) const {
  Dumper d{indent, {}};
  d.dump(*this, 0);
  return d.out;
}

Json Json::parse(std::string_view text) {
  Parser p{text};
  Json v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing characters");
  return v;
}

}  // namespace p4s::util
