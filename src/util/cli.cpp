#include "util/cli.hpp"

#include <algorithm>
#include <charconv>

namespace p4s::util {

CliArgs::CliArgs(int argc, const char* const* argv,
                 const std::vector<std::string>& known,
                 const std::vector<std::string>& switches) {
  const auto contains = [](const std::vector<std::string>& list,
                           const std::string& name) {
    return std::find(list.begin(), list.end(), name) != list.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_inline_value = true;
    }
    const bool is_switch = contains(switches, name);
    if (!is_switch && !contains(known, name)) {
      errors_.push_back("unknown flag --" + name);
      continue;
    }
    if (!is_switch && !has_inline_value && i + 1 < argc &&
        std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    values_[name] = std::move(value);
  }
}

namespace {

template <typename T>
T parse_or(const std::optional<std::string>& v, const std::string& flag,
           T fallback, std::vector<std::string>& errors) {
  if (!v || v->empty()) return fallback;
  T out{};
  auto [p, ec] = std::from_chars(v->data(), v->data() + v->size(), out);
  if (ec != std::errc() || p != v->data() + v->size()) {
    errors.push_back("malformed value for --" + flag + ": '" + *v + "'");
    return fallback;
  }
  return out;
}

}  // namespace

double CliArgs::number_or(const std::string& flag, double fallback) const {
  return parse_or(get(flag), flag, fallback, errors_);
}

std::uint64_t CliArgs::uint_or(const std::string& flag,
                               std::uint64_t fallback) const {
  return parse_or(get(flag), flag, fallback, errors_);
}

}  // namespace p4s::util
