//===- server/ServingSimulator.cpp - Requests over the allocator sim ------===//

#include "server/ServingSimulator.h"

#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <queue>
#include <tuple>

using namespace ddm;

double
ServiceTimeModel::capacityRps(const std::vector<double> &MixWeights) const {
  assert(!Workloads.empty());
  double Total = 0.0;
  for (size_t I = 0; I < Workloads.size(); ++I)
    Total += I < MixWeights.size() ? MixWeights[I] : 0.0;
  if (Total <= 0)
    return capacityRps();
  // Mean service time of a random request with every worker busy.
  double MeanSec = 0.0;
  for (size_t I = 0; I < Workloads.size(); ++I) {
    double P = (I < MixWeights.size() ? MixWeights[I] : 0.0) / Total;
    MeanSec += P * Workloads[I].BaseServiceSec *
               Workloads[I].Slowdown[Workers - 1];
  }
  return static_cast<double>(Workers) / MeanSec;
}

double ServiceTimeModel::capacityRps() const {
  return capacityRps(std::vector<double>(Workloads.size(), 1.0));
}

ServiceTimeModel ddm::buildServiceTimeModel(const std::vector<WorkloadSpec> &Mix,
                                            AllocatorKind Kind,
                                            const Platform &P,
                                            unsigned ActiveCores,
                                            const SimulationOptions &Options) {
  assert(!Mix.empty() && "need at least one workload");
  assert(ActiveCores >= 1 && ActiveCores <= P.Cores && "bad core count");

  ServiceTimeModel Model;
  Model.Workers = ActiveCores * P.ThreadsPerCore;
  Model.PlatformName = P.Name;
  Model.Kind = Kind;

  double FreqHz = P.FreqGHz * 1e9;
  for (const WorkloadSpec &W : Mix) {
    RuntimeConfig Config;
    Config.Kind = Kind;
    // Bulk free only where the allocator implements it: freeAll() on the
    // glibc/tcmalloc/hoard models is a programming error (abort).
    Config.UseBulkFree = allocatorSupportsBulkFree(Kind);

    ServiceProfile Profile = profileService(
        W, Config, P, ActiveCores, std::max(1u, Options.MeasureTx), Options);

    ServiceTimeModel::PerWorkload PW;
    PW.Name = W.Name;
    PW.RelativeWeights = Profile.RelativeWeights;

    // Re-evaluate the performance model at every concurrency level; the
    // bus-utilization fixed point inside evaluatePerformance() is what
    // stretches cycles as more workers become busy. Partial cores on
    // multithreaded platforms are rounded up (the co-resident threads of
    // a partially busy core contend for its pipeline anyway).
    std::vector<double> ServiceSec(Model.Workers);
    for (unsigned W2 = 1; W2 <= Model.Workers; ++W2) {
      unsigned Cores = (W2 + P.ThreadsPerCore - 1) / P.ThreadsPerCore;
      PerfResult R = evaluatePerformance(P, Profile.MeanEvents, Cores);
      ServiceSec[W2 - 1] = R.CyclesPerTx / FreqHz;
    }
    PW.BaseServiceSec = ServiceSec[0];
    PW.Slowdown.resize(Model.Workers);
    double Peak = 1.0;
    for (unsigned I = 0; I < Model.Workers; ++I) {
      // Enforce monotonicity; the fixed point converges to within 1e-6 so
      // tiny inversions are numerical noise.
      Peak = std::max(Peak, ServiceSec[I] / ServiceSec[0]);
      PW.Slowdown[I] = Peak;
    }
    Model.Workloads.push_back(std::move(PW));
  }
  return Model;
}

namespace {

/// Draws per-request service demands from the model's sampled weights.
class DemandSampler {
public:
  DemandSampler(const ServiceTimeModel &Model, uint64_t Seed)
      : Model(Model), R(Seed ^ 0x5e47edeadull) {}

  double workSec(unsigned WorkloadIdx) {
    const ServiceTimeModel::PerWorkload &W = Model.Workloads[WorkloadIdx];
    double Weight =
        W.RelativeWeights.empty()
            ? 1.0
            : W.RelativeWeights[R.nextBelow(W.RelativeWeights.size())];
    return W.BaseServiceSec * Weight;
  }

private:
  const ServiceTimeModel &Model;
  Rng R;
};

void recordCompletion(ServingMetrics &M, const Completion &C) {
  ++M.Completed;
  // Client-visible latency spans retries: first submission to the finish
  // of the attempt that succeeded. Wait is per-attempt queueing delay.
  M.LatencyUs.add(static_cast<uint64_t>(
      std::llround((C.FinishSec - C.Req.FirstArrivalSec) * 1e6)));
  M.WaitUs.add(static_cast<uint64_t>(std::llround(C.waitSec() * 1e6)));
}

} // namespace

ServingMetrics ddm::runServing(const ServiceTimeModel &Model,
                               const ServingConfig &Config) {
  assert(Config.Load.MixWeights.size() == Model.Workloads.size() &&
         "mix weights must match the model's workloads");

  LoadGenerator Gen(Config.Load);
  DemandSampler Demand(Model, Config.Load.Seed);
  WorkerPool Pool(Model.Workers, Config.QueueCapacity, Config.Policy,
                  [&Model](unsigned WorkloadIdx, unsigned Busy) {
                    const auto &W = Model.Workloads[WorkloadIdx];
                    return 1.0 / W.Slowdown[std::min<size_t>(
                               Busy, W.Slowdown.size()) - 1];
                  },
                  Config.Restart);

  ServingMetrics M;
  double LastFinish = 0.0;
  uint64_t NextId = 0;

  auto makeRequest = [&](double ArrivalSec, unsigned Client) {
    Request Req;
    Req.Id = NextId++;
    Req.WorkloadIdx = Gen.pickWorkload();
    Req.Client = Client;
    Req.ArrivalSec = ArrivalSec;
    Req.FirstArrivalSec = ArrivalSec;
    Req.WorkSec = Demand.workSec(Req.WorkloadIdx);
    // Whether this attempt's transaction hits the (injected) OOM; with the
    // injector disarmed this is always false at zero cost.
    Req.WillFail = faultShouldFail(FaultSite::WorkerHeap);
    // Likewise for a detected-corruption abort (hardened heap trips a
    // canary/quarantine check mid-transaction).
    Req.WillCorrupt = faultShouldFail(FaultSite::HeapScribbleOverflow);
    return Req;
  };

  auto offerTracked = [&](const Request &Req) {
    M.QueueDepthAtArrival.add(static_cast<double>(Pool.queueDepth()));
    ++M.Offered;
    if (!Pool.offer(Req)) {
      ++M.Dropped;
      return false;
    }
    return true;
  };

  if (Config.Load.Process == ArrivalProcess::ClosedLoop) {
    // Fixed client population: think -> submit -> wait -> think... A
    // failed request is retried by its client with exponential backoff
    // (the same request, a fresh failure decision) until MaxAttempts.
    struct Submit {
      double Sec = 0.0;
      uint64_t Seq = 0; ///< Insertion order: deterministic tie-break.
      unsigned Client = 0;
      bool IsRetry = false;
      Request Retry; ///< The request being retried (when IsRetry).
    };
    struct SubmitLater {
      bool operator()(const Submit &A, const Submit &B) const {
        return std::tie(A.Sec, A.Seq) > std::tie(B.Sec, B.Seq);
      }
    };
    std::priority_queue<Submit, std::vector<Submit>, SubmitLater> Pending;
    uint64_t NextSeq = 0;
    for (unsigned C = 0; C < std::max(1u, Config.Load.Clients); ++C)
      Pending.push({Gen.nextThinkSec(), NextSeq++, C, false, Request()});

    while (M.Completed + M.Failed < Config.DurationTx &&
           (!Pending.empty() || Pool.busy())) {
      double NextArrival = Pending.empty()
                               ? std::numeric_limits<double>::infinity()
                               : Pending.top().Sec;
      double NextCompletion = Pool.nextCompletionSec();
      if (NextArrival <= NextCompletion) {
        Submit Ev = Pending.top();
        Pending.pop();
        if (Ev.IsRetry) {
          Request Req = Ev.Retry;
          Req.ArrivalSec = Ev.Sec;
          Req.WillFail = faultShouldFail(FaultSite::WorkerHeap);
          Req.WillCorrupt = faultShouldFail(FaultSite::HeapScribbleOverflow);
          if (!offerTracked(Req))
            // Dropped retry: back off one think time, same attempt.
            Pending.push(
                {Ev.Sec + Gen.nextThinkSec(), NextSeq++, Ev.Client, true, Req});
        } else if (!offerTracked(makeRequest(Ev.Sec, Ev.Client))) {
          // Dropped: the client backs off for another think time.
          Pending.push({Ev.Sec + Gen.nextThinkSec(), NextSeq++, Ev.Client, false, Request()});
        }
      } else {
        Completion Done = Pool.completeNext();
        LastFinish = Done.FinishSec;
        // A corruption abort is one of the Failed outcomes; count it
        // separately so operators can tell scribbles from OOMs.
        if (Done.Corrupted)
          ++M.CorruptionAborts;
        if (Done.Failed && Done.Req.Attempt < Config.MaxAttempts) {
          // The client retries after an exponentially growing backoff.
          ++M.Retried;
          Request Retry = Done.Req;
          ++Retry.Attempt;
          double Backoff =
              Config.RetryBackoffSec *
              std::ldexp(1.0, static_cast<int>(Done.Req.Attempt) - 1);
          Pending.push({Done.FinishSec + Backoff, NextSeq++, Done.Req.Client,
                        true, Retry});
        } else {
          if (Done.Failed)
            ++M.Failed; // Out of attempts: the client gives up.
          else
            recordCompletion(M, Done);
          Pending.push({Done.FinishSec + Gen.nextThinkSec(), NextSeq++,
                        Done.Req.Client, false, Request()});
        }
      }
    }
    // Realized rather than configured rate: a closed loop self-limits.
    M.OfferedRps = LastFinish > 0
                       ? static_cast<double>(M.Offered) / LastFinish
                       : 0.0;
  } else {
    // Open loop: DurationTx arrivals regardless of completion progress.
    uint64_t Remaining = Config.DurationTx;
    double NextArrival =
        Remaining ? Gen.nextArrivalSec()
                  : std::numeric_limits<double>::infinity();
    while (Remaining > 0 || Pool.busy()) {
      double NextCompletion = Pool.nextCompletionSec();
      if (Remaining > 0 && NextArrival <= NextCompletion) {
        offerTracked(makeRequest(NextArrival, 0));
        --Remaining;
        NextArrival = Remaining
                          ? Gen.nextArrivalSec()
                          : std::numeric_limits<double>::infinity();
      } else {
        Completion Done = Pool.completeNext();
        // Open-loop clients never retry: a failed attempt is a failed
        // request.
        if (Done.Corrupted)
          ++M.CorruptionAborts;
        if (Done.Failed)
          ++M.Failed;
        else
          recordCompletion(M, Done);
        LastFinish = Done.FinishSec;
      }
    }
    M.OfferedRps = Config.Load.RatePerSec;
  }

  // Whatever was still queued or in service when the run ended (the closed
  // loop stops at its completion target without draining).
  M.Unfinished = M.Offered - M.Completed - M.Retried - M.Failed - M.Dropped;

  M.Restarts = Pool.restarts();
  M.RestartDowntimeSec = Pool.restartDowntimeSec();
  M.PeakWorkerHeapBytes = Pool.peakWorkerHeapBytes();

  M.MakespanSec = LastFinish;
  if (LastFinish > 0) {
    M.GoodputRps = static_cast<double>(M.Completed) / LastFinish;
    M.MeanBusyWorkers = Pool.busyWorkerSeconds() / LastFinish;
    M.Utilization = M.MeanBusyWorkers / static_cast<double>(Model.Workers);
  }
  return M;
}
