// Minimal command-line flag parser for the runnable tools:
// --flag value / --flag=value / bare --switch. Unknown flags, and
// numeric flags whose value does not parse, are collected as errors so
// tools can fail loudly instead of silently ignoring typos.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace p4s::util {

class CliArgs {
 public:
  /// Parse argv. `known` lists accepted value-taking flag names (without
  /// "--"); `switches` lists accepted bare switches, which never consume
  /// the following token (so `--print-reports file.pcap` leaves file.pcap
  /// positional). Anything else lands in errors().
  CliArgs(int argc, const char* const* argv,
          const std::vector<std::string>& known,
          const std::vector<std::string>& switches = {});

  bool has(const std::string& flag) const { return values_.count(flag) > 0; }

  std::optional<std::string> get(const std::string& flag) const {
    auto it = values_.find(flag);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& flag,
                     const std::string& fallback) const {
    return get(flag).value_or(fallback);
  }

  /// The flag's value as a number, or `fallback` when the flag is
  /// absent or has no value. A value that does not parse also yields
  /// `fallback` and is recorded in errors(), so read numeric flags
  /// before checking errors().
  double number_or(const std::string& flag, double fallback) const;
  std::uint64_t uint_or(const std::string& flag,
                        std::uint64_t fallback) const;

  const std::vector<std::string>& errors() const { return errors_; }
  /// Non-flag positional arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;  // switches map to ""
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
};

}  // namespace p4s::util
