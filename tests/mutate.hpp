// The robustness batteries' harness: the corpus file reader, and seeded
// mutations over any byte container (std::string,
// std::vector<std::uint8_t>). CI runs every battery at several P4S_SEED
// values.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <utility>

namespace p4s::test {

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class Mutator {
 public:
  /// Seeded by P4S_SEED (1 when unset) plus `offset`.
  explicit Mutator(std::uint64_t offset = 0) : rng_(offset + seed()) {}

  /// Uniform in [0, n); n > 0.
  std::size_t below(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
  }
  std::uint8_t byte() { return static_cast<std::uint8_t>(rng_()); }

  /// Flip one of the low `bits` bits of b[at], of a random byte by default.
  template <class B>
  void flip_bit(B& b, std::size_t at = SIZE_MAX, unsigned bits = 8) {
    b[at < b.size() ? at : below(b.size())] ^=
        static_cast<typename B::value_type>(1u << below(bits));
  }
  template <class B>
  void truncate(B& b) { b.resize(below(b.size())); }
  /// Overwrite 1..max_len bytes with random ones.
  template <class B>
  void scramble_span(B& b, std::size_t max_len) {
    const auto [from, to] = span(b, max_len);
    for (auto i = from; i < to; ++i) {
      b[i] = static_cast<typename B::value_type>(byte());
    }
  }
  /// Cut 1..max_len bytes and reinsert them at a random position.
  template <class B>
  void move_span(B& b, std::size_t max_len) {
    const auto [from, to] = span(b, max_len);
    const B cut(b.begin() + from, b.begin() + to);
    b.erase(b.begin() + from, b.begin() + to);
    b.insert(b.begin() + below(b.size() + 1), cut.begin(), cut.end());
  }

 private:
  static std::uint64_t seed() {
    const char* env = std::getenv("P4S_SEED");
    return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
  }
  template <class B>
  std::pair<std::size_t, std::size_t> span(const B& b, std::size_t max_len) {
    const std::size_t from = below(b.size());
    return {from, from + 1 + below(std::min(max_len, b.size() - from))};
  }

  std::mt19937_64 rng_;
};

}  // namespace p4s::test
