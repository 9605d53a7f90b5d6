//===- server/LoadGenerator.cpp - Request arrival processes ---------------===//

#include "server/LoadGenerator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

using namespace ddm;

const char *ddm::arrivalProcessName(ArrivalProcess Process) {
  switch (Process) {
  case ArrivalProcess::Poisson:
    return "poisson";
  case ArrivalProcess::Bursty:
    return "bursty";
  case ArrivalProcess::ClosedLoop:
    return "closed";
  }
  return "?";
}

std::optional<ArrivalProcess>
ddm::arrivalProcessFromName(const std::string &Name) {
  if (Name == "poisson")
    return ArrivalProcess::Poisson;
  if (Name == "bursty")
    return ArrivalProcess::Bursty;
  if (Name == "closed" || Name == "closed-loop")
    return ArrivalProcess::ClosedLoop;
  return std::nullopt;
}

LoadGenerator::LoadGenerator(const LoadConfig &C) : Config(C), R(C.Seed) {
  assert(Config.RatePerSec > 0 && "offered load must be positive");
  MixTotal = std::accumulate(Config.MixWeights.begin(),
                             Config.MixWeights.end(), 0.0);
  assert(MixTotal > 0 && "workload mix needs positive total weight");

  // Solve the on-off rates so the long-run average equals RatePerSec:
  //   f * OnRate + (1 - f) * OffRate = RatePerSec, OnRate = Boost * Rate.
  double F = std::clamp(Config.BurstOnFraction, 0.01, 0.99);
  double Boost = std::clamp(Config.BurstBoost, 1.0, 1.0 / F);
  OnRate = Boost * Config.RatePerSec;
  OffRate = Config.RatePerSec * (1.0 - F * Boost) / (1.0 - F);
  MeanOffSec = Config.MeanOnSec * (1.0 - F) / F;
  // Start in the off phase so short runs are not biased toward bursts.
  if (Config.Process == ArrivalProcess::Bursty)
    enterPhase(false);
}

double LoadGenerator::sampleExp(double Rate) {
  double U = R.nextDouble();
  if (U <= 0.0)
    U = 0x1.0p-53;
  return -std::log(U) / Rate;
}

void LoadGenerator::enterPhase(bool On) {
  OnPhase = On;
  double Mean = On ? Config.MeanOnSec : MeanOffSec;
  PhaseEndSec = NowSec + sampleExp(1.0 / std::max(Mean, 1e-9));
}

double LoadGenerator::nextArrivalSec() {
  assert(Config.Process != ArrivalProcess::ClosedLoop &&
         "closed-loop arrivals are driven by completions, not the clock");
  if (Config.Process == ArrivalProcess::Poisson) {
    NowSec += sampleExp(Config.RatePerSec);
    return NowSec;
  }
  // On-off modulated Poisson: exponential gaps at the phase rate, crossing
  // phase boundaries memorylessly.
  for (;;) {
    double Rate = OnPhase ? OnRate : OffRate;
    if (Rate <= 1e-12) {
      NowSec = PhaseEndSec;
      enterPhase(!OnPhase);
      continue;
    }
    double Gap = sampleExp(Rate);
    if (NowSec + Gap <= PhaseEndSec) {
      NowSec += Gap;
      return NowSec;
    }
    NowSec = PhaseEndSec;
    enterPhase(!OnPhase);
  }
}

unsigned LoadGenerator::pickWorkload() {
  if (Config.MixWeights.size() <= 1)
    return 0;
  double X = R.nextDouble() * MixTotal;
  double Acc = 0.0;
  for (size_t I = 0; I < Config.MixWeights.size(); ++I) {
    Acc += Config.MixWeights[I];
    if (X < Acc)
      return static_cast<unsigned>(I);
  }
  return static_cast<unsigned>(Config.MixWeights.size() - 1);
}

double LoadGenerator::nextThinkSec() {
  return sampleExp(1.0 / std::max(Config.MeanThinkSec, 1e-9));
}
