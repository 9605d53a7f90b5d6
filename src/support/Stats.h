//===- support/Stats.h - Streaming statistics ------------------*- C++ -*-===//
///
/// \file
/// Streaming mean/variance accumulation (Welford). Used by the workload
/// generators to verify that generated traces match the paper's Table 3
/// statistics, and by the experiment harness for reporting.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SUPPORT_STATS_H
#define DDM_SUPPORT_STATS_H

#include <cstdint>

namespace ddm {

/// Accumulates count/mean/variance/min/max of a stream of samples without
/// storing them.
class RunningStat {
public:
  /// Adds one sample.
  void add(double X);

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const RunningStat &Other);

  uint64_t count() const { return N; }
  double mean() const { return N ? Mean : 0.0; }
  /// Population variance of the samples seen so far.
  double variance() const { return N ? M2 / static_cast<double>(N) : 0.0; }
  double stddev() const;
  double min() const { return N ? Min : 0.0; }
  double max() const { return N ? Max : 0.0; }
  double sum() const { return Mean * static_cast<double>(N); }

private:
  uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Min = 0.0;
  double Max = 0.0;
};

} // namespace ddm

#endif // DDM_SUPPORT_STATS_H
