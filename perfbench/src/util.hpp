// Shared helpers of the benchmark: clock, exact percentiles, metric
// records, a bench-owned PRNG and peak-RSS probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Samples a percentile needs beyond it before it is reported: with
/// fewer, one outlier moves the value and two runs cannot be compared.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank q-percentile of an ascending `sorted` array: the
/// smallest sample with at least q*n samples at or below it.  Empty when
/// fewer than kMinTail samples lie beyond that rank.
inline std::optional<double> percentile(const std::vector<double>& sorted,
                                        double q) {
  const std::size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < kMinTail) return std::nullopt;
  return sorted[rank - 1];
}

/// Median of `v`; 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// SplitMix64: the benchmark's own generator, so the request stream is
/// a function of (workload, seed) alone and never of library code.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Makes a computed value observable so replayed calls are not
/// optimized away.
void keep(std::uint64_t v);

/// VmHWM of this process in MB (0 when /proc is unavailable).
double peak_rss_mb();

}  // namespace perfbench
