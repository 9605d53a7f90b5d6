//===- perfbench/host/Percentile.h - Order statistics ----------*- C++ -*-===//
///
/// \file
/// How every timing of the benchmark is summarized. A percentile is the
/// nearest-rank order statistic, and it is only reported when at least ten
/// samples lie beyond it: p99 needs 1000 samples, p50 needs 20. Quartiles
/// use linear interpolation between order statistics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PERCENTILE_H
#define PERFBENCH_PERCENTILE_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
constexpr size_t MinSamplesBeyond = 10;

/// Nearest-rank percentile of ascending \p Sorted; std::nullopt when fewer
/// than \p MinBeyond samples lie beyond it.
inline std::optional<double> percentile(const std::vector<double> &Sorted,
                                        double Fraction,
                                        size_t MinBeyond = MinSamplesBeyond) {
  size_t N = Sorted.size();
  if (N == 0 || Fraction < 0.0 || Fraction > 1.0)
    return std::nullopt;
  // 1-based rank; the epsilon keeps 0.99 * 1000 at rank 990.
  auto Rank = static_cast<size_t>(
      std::ceil(Fraction * static_cast<double>(N) - 1e-9));
  Rank = std::clamp<size_t>(Rank, 1, N);
  if (N - Rank < MinBeyond)
    return std::nullopt;
  return Sorted[Rank - 1];
}

/// Median, quartiles and count of a sample set.
struct Summary {
  double Median = 0.0;
  double Q1 = 0.0;
  double Q3 = 0.0;
  size_t N = 0;
};

/// Linear-interpolation quantile of ascending \p Sorted (non-empty).
inline double quantile(const std::vector<double> &Sorted, double Q) {
  double Pos = Q * static_cast<double>(Sorted.size() - 1);
  auto Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - static_cast<double>(Lo));
}

inline Summary summarize(std::vector<double> Samples) {
  Summary S;
  S.N = Samples.size();
  if (Samples.empty())
    return S;
  std::sort(Samples.begin(), Samples.end());
  S.Median = quantile(Samples, 0.5);
  S.Q1 = quantile(Samples, 0.25);
  S.Q3 = quantile(Samples, 0.75);
  return S;
}

/// Median of \p Samples (0 when empty).
inline double median(std::vector<double> Samples) {
  return summarize(std::move(Samples)).Median;
}

} // namespace perfbench

#endif // PERFBENCH_PERCENTILE_H
