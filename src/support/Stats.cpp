//===- support/Stats.cpp - Streaming statistics ---------------------------===/

#include "support/Stats.h"

#include <algorithm>
#include <cmath>

using namespace ddm;

void RunningStat::add(double X) {
  if (N == 0) {
    Min = Max = X;
  } else {
    Min = std::min(Min, X);
    Max = std::max(Max, X);
  }
  ++N;
  double Delta = X - Mean;
  Mean += Delta / static_cast<double>(N);
  M2 += Delta * (X - Mean);
}

void RunningStat::merge(const RunningStat &Other) {
  if (Other.N == 0)
    return;
  if (N == 0) {
    *this = Other;
    return;
  }
  double Delta = Other.Mean - Mean;
  uint64_t Combined = N + Other.N;
  double CombinedMean =
      Mean + Delta * static_cast<double>(Other.N) / static_cast<double>(Combined);
  M2 += Other.M2 + Delta * Delta * static_cast<double>(N) *
                       static_cast<double>(Other.N) /
                       static_cast<double>(Combined);
  Mean = CombinedMean;
  Min = std::min(Min, Other.Min);
  Max = std::max(Max, Other.Max);
  N = Combined;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }
