//===- server/LoadGenerator.h - Request arrival processes ------*- C++ -*-===//
///
/// \file
/// Generates the arrival side of the serving simulation: open-loop Poisson
/// arrivals, an on-off modulated ("bursty") variant whose long-run rate
/// still equals the configured offered load, and the think-time samples of
/// a closed-loop client population. A workload mix assigns each request
/// one of the configured WorkloadSpec indices.
///
/// Everything is deterministic from the seed: the same LoadConfig always
/// yields the same arrival-time and workload-index sequence, which is what
/// lets the latency benches reproduce bit-identically.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_SERVER_LOADGENERATOR_H
#define DDM_SERVER_LOADGENERATOR_H

#include "support/Random.h"

#include <optional>
#include <string>
#include <vector>

namespace ddm {

/// How requests arrive at the server.
enum class ArrivalProcess {
  Poisson,    ///< Open loop, exponential interarrivals at RatePerSec.
  Bursty,     ///< Open loop, on-off modulated Poisson (mean = RatePerSec).
  ClosedLoop, ///< Fixed client population with exponential think times.
};

const char *arrivalProcessName(ArrivalProcess Process);
std::optional<ArrivalProcess> arrivalProcessFromName(const std::string &Name);

/// Parameters of one offered load.
struct LoadConfig {
  ArrivalProcess Process = ArrivalProcess::Poisson;

  /// Long-run offered arrival rate (open-loop processes).
  double RatePerSec = 100.0;

  /// \name Bursty (on-off) parameters.
  /// @{
  /// On-phase rate is BurstBoost * RatePerSec; the off-phase rate is
  /// solved so the long-run average stays RatePerSec (requires
  /// BurstBoost * BurstOnFraction <= 1; clamped otherwise).
  double BurstBoost = 4.0;
  /// Long-run fraction of time spent in the on phase.
  double BurstOnFraction = 0.2;
  /// Mean on-phase duration (exponential); the off-phase mean follows
  /// from BurstOnFraction.
  double MeanOnSec = 0.5;
  /// @}

  /// \name Closed-loop parameters.
  /// @{
  unsigned Clients = 32;
  double MeanThinkSec = 0.1;
  /// @}

  /// Relative weights of the workload mix; request workload indices are
  /// sampled proportionally. Size 1 means a single-workload run.
  std::vector<double> MixWeights = {1.0};

  uint64_t Seed = 0x10ad;
};

/// Deterministic request-arrival generator.
class LoadGenerator {
public:
  explicit LoadGenerator(const LoadConfig &Config);

  /// Open-loop only: the absolute arrival time (seconds) of the next
  /// request. Strictly non-decreasing.
  double nextArrivalSec();

  /// Samples the workload index of the next request from MixWeights.
  unsigned pickWorkload();

  /// Closed-loop only: one exponential think-time sample.
  double nextThinkSec();

  const LoadConfig &config() const { return Config; }

private:
  double sampleExp(double Rate);
  void enterPhase(bool On);

  LoadConfig Config;
  Rng R;
  double NowSec = 0.0;
  bool OnPhase = false;
  double PhaseEndSec = 0.0;
  double OnRate = 0.0;
  double OffRate = 0.0;
  double MeanOffSec = 0.0;
  double MixTotal = 0.0;
};

} // namespace ddm

#endif // DDM_SERVER_LOADGENERATOR_H
