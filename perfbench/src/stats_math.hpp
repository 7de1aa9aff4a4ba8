#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

/// \file stats_math.hpp
/// The benchmark's own arithmetic: percentiles under the ten-samples-beyond
/// rule, bandwidth from the slowest rank, and the failed-op fraction. Kept
/// free of the stack so `perfbench --self-test` can check it in isolation.
namespace perfbench {

/// Nearest-rank percentile of `sorted` (ascending): the sample of 1-based
/// rank ceil(q * n). Returns nothing unless at least ten samples lie beyond
/// that rank, so a p99 needs n >= 1000 and a p50 n >= 20.
inline std::optional<double> percentile(const std::vector<double>& sorted,
                                        double q) {
  const auto n = static_cast<std::uint64_t>(sorted.size());
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  return sorted[rank - 1];
}

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The time of a phase the ranks ran in parallel: its slowest rank's.
inline std::uint64_t slowest(const std::vector<std::uint64_t>& rank_ns) {
  std::uint64_t t = 0;
  for (std::uint64_t v : rank_ns) t = std::max(t, v);
  return t;
}

/// MB/s (1 MB = 1e6 bytes) for `bytes` moved in `ns` virtual nanoseconds;
/// 0 when no time passed.
inline double mbps(std::uint64_t bytes, std::uint64_t ns) {
  if (ns == 0) return 0.0;
  return static_cast<double>(bytes) * 1e3 / static_cast<double>(ns);
}

/// Failed calls plus read-back mismatches over calls attempted. A call that
/// failed and also returned wrong bytes counts once (the caller counts a
/// mismatch only on calls that reported success).
inline double failed_frac(std::uint64_t failed, std::uint64_t mismatches,
                          std::uint64_t attempted) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(failed + mismatches) /
         static_cast<double>(attempted);
}

}  // namespace perfbench
