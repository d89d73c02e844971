/// \file stats.h
/// \brief Order statistics for latency samples.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

/// The highest of the percentiles 50, 90, 99, 99.9 and 99.99 that has at
/// least ten samples beyond its nearest rank in a sample of `n`; 0 when not
/// even the median has. Integer arithmetic, so n = 1000 gives exactly 0.99.
inline double TailQuantile(std::size_t n) {
  constexpr std::uint64_t kScale = 100000;
  constexpr std::uint64_t kLadder[] = {99990, 99900, 99000, 90000, 50000};
  for (const std::uint64_t q : kLadder) {
    const std::uint64_t rank = (q * n + kScale - 1) / kScale;
    if (n >= rank + 10) return static_cast<double>(q) / kScale;
  }
  return 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
