// Unit helpers: simulated time is an unsigned 64-bit nanosecond count,
// bandwidth is bits per second, sizes are bytes. Keeping these as strong
// helper functions (not raw literals scattered around) makes experiment
// configs readable and keeps BDP math in one place.
#pragma once

#include <cstdint>

namespace p4s {

/// Simulated time in nanoseconds since the start of the simulation.
using SimTime = std::uint64_t;

namespace units {

constexpr SimTime nanoseconds(std::uint64_t v) { return v; }
constexpr SimTime microseconds(std::uint64_t v) { return v * 1'000ULL; }
constexpr SimTime milliseconds(std::uint64_t v) { return v * 1'000'000ULL; }
constexpr SimTime seconds(std::uint64_t v) { return v * 1'000'000'000ULL; }

/// Fractional seconds -> SimTime (rounds toward zero).
constexpr SimTime seconds_f(double v) {
  return static_cast<SimTime>(v * 1e9);
}

constexpr double to_seconds(SimTime t) { return static_cast<double>(t) / 1e9; }
constexpr double to_milliseconds(SimTime t) {
  return static_cast<double>(t) / 1e6;
}

constexpr std::uint64_t kbps(std::uint64_t v) { return v * 1'000ULL; }
constexpr std::uint64_t mbps(std::uint64_t v) { return v * 1'000'000ULL; }
constexpr std::uint64_t gbps(std::uint64_t v) { return v * 1'000'000'000ULL; }

constexpr std::uint64_t mebibytes(std::uint64_t v) {
  return v * 1024ULL * 1024ULL;
}

/// Time to serialize `bytes` onto a link of `bits_per_second`.
constexpr SimTime transmission_time(std::uint64_t bytes,
                                    std::uint64_t bits_per_second) {
  // 8e9 ns-bits per byte-second; keep the multiply in 128 bits to avoid
  // overflow for jumbo frames on slow links.
  return static_cast<SimTime>(
      (static_cast<unsigned __int128>(bytes) * 8u * 1'000'000'000ULL) /
      bits_per_second);
}

/// Bandwidth-delay product in bytes for a path of `bits_per_second` and
/// round-trip time `rtt`.
constexpr std::uint64_t bdp_bytes(std::uint64_t bits_per_second, SimTime rtt) {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(bits_per_second) * rtt) /
      (8u * 1'000'000'000ULL));
}

}  // namespace units
}  // namespace p4s
