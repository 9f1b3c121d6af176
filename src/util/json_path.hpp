// JsonPathReader — typed reads of untrusted JSON documents whose
// diagnostics name the offending value by its full JSON path
// ("switches[1].programs[0].ops[2].field").
//
// The config loader and the mpl compiler both read user-written JSON and
// must say exactly where it is wrong; they share this reader so every
// check is worded once. Each failure throws std::invalid_argument:
//
//   "<prefix>: '<path>' <what>"     fail(path, what) and the typed reads
//   "<prefix>: <what>"              fail(what), for free-form messages
#pragma once

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace p4s::util {

class JsonPathReader {
 public:
  /// `prefix` leads every message ("config", "program").
  /// `lookup_separator` sits between the quoted path and the error of a
  /// failed name() lookup.
  explicit JsonPathReader(std::string prefix,
                          std::string lookup_separator = " ")
      : prefix_(std::move(prefix)),
        lookup_separator_(std::move(lookup_separator)) {}

  /// "<parent>.<key>", or just `key` at the document root.
  static std::string child(const std::string& parent, const std::string& key) {
    return parent.empty() ? key : parent + "." + key;
  }
  /// "<parent>[<index>]".
  static std::string element(const std::string& parent, std::size_t index) {
    return parent + "[" + std::to_string(index) + "]";
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(prefix_ + ": " + what);
  }
  [[noreturn]] void fail(const std::string& path,
                         const std::string& what) const {
    fail("'" + path + "' " + what);
  }

  double number(const Json& v, const std::string& path) const {
    if (!v.is_number()) fail(path, "must be a number");
    return v.as_double();
  }
  std::uint64_t unsigned_int(const Json& v, const std::string& path) const {
    return whole_number(v, path, 0, "must be a non-negative integer");
  }
  std::uint64_t positive_int(const Json& v, const std::string& path) const {
    return whole_number(v, path, 1, "must be a positive integer");
  }
  /// A number, whole or not, in [`min`, `max`] — the range on which a
  /// later conversion (seconds to SimTime, a count to int) is defined.
  double number_in(const Json& v, const std::string& path, std::int64_t min,
                   std::int64_t max) const {
    const double n = number(v, path);
    if (!(n >= static_cast<double>(min) && n <= static_cast<double>(max))) {
      fail(path, "must be in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
    }
    return n;
  }
  /// A number strictly between 0 and 1.
  double fraction(const Json& v, const std::string& path) const {
    const double f = number(v, path);
    if (!(f > 0.0 && f < 1.0)) fail(path, "must be in (0, 1)");
    return f;
  }
  const std::string& string(const Json& v, const std::string& path) const {
    if (!v.is_string()) fail(path, "must be a string");
    return v.as_string();
  }
  bool boolean(const Json& v, const std::string& path) const {
    if (!v.is_bool()) fail(path, "must be a boolean");
    return v.as_bool();
  }
  const JsonArray& array(const Json& v, const std::string& path) const {
    if (!v.is_array()) fail(path, "must be an array");
    return v.as_array();
  }

  /// A string resolved through `from_name` (a "<enum>_from_name"
  /// function); its std::invalid_argument becomes a diagnostic at `path`.
  template <typename FromName>
  auto name(const Json& v, const std::string& path,
            FromName&& from_name) const {
    const std::string& text = string(v, path);
    try {
      return from_name(text);
    } catch (const std::invalid_argument& e) {
      fail("'" + path + "'" + lookup_separator_ + e.what());
    }
  }

 private:
  /// A whole number >= `min`; 2^64 bounds the cast, beyond which the
  /// conversion is undefined.
  std::uint64_t whole_number(const Json& v, const std::string& path,
                             double min, const char* what) const {
    const double n = number(v, path);
    if (!(n >= min && n < 18446744073709551616.0) || n != std::floor(n)) {
      fail(path, what);
    }
    return static_cast<std::uint64_t>(n);
  }

  std::string prefix_;
  std::string lookup_separator_;
};

}  // namespace p4s::util
