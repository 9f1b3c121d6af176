// Order statistics and the archive digest, shared by the rep runner and
// the aggregating parent.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <vector>

namespace p4s::e2e {

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// First and third quartile by Python's statistics.quantiles(v, n=4)
/// ('exclusive' method), so e2e's spreads match a reader recomputing
/// them from the per-rep values. A single value is its own quartiles.
inline std::array<double, 2> quartiles(std::vector<double> v) {
  if (v.empty()) return {0.0, 0.0};
  if (v.size() == 1) return {v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 2> out{};
  for (long i : {1L, 3L}) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[i == 1 ? 0 : 1] =
        (v[j - 1] * static_cast<double>(4 - delta) +
         v[j] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// Nearest-rank percentile (q in (0, 1]): the smallest sample with at
/// least q of the samples at or below it; 0 if empty.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// 64-bit FNV-1a, fed incrementally.
class Fnv1a {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace p4s::e2e
