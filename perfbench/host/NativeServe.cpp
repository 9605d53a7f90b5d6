//===- perfbench/host/NativeServe.cpp - The native serving workload -------===//
///
/// \file
/// native-serve: `loadtest --mode native` through ddm::runNative. A PHP
/// mix on 2 worker threads and 1 producer (under the host's 4 cores).
/// Rounds alternate a saturating closed-loop window per sharing model
/// (ddmalloc: sharded pool, tcmalloc: shared central, default: private
/// heap), which gives tx_per_s, with an open Poisson window on ddmalloc at
/// a fixed rate of about a third of this host's saturation rate, which
/// gives the latency percentiles.
///
/// runNative times a request from its enqueue, not from its scheduled
/// arrival, so a late producer is not counted in the latency.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "exec/NativeExecutor.h"
#include "server/LoadGenerator.h"

#include <algorithm>
#include <memory>

using namespace ddm;
using namespace perfbench;

namespace {

/// The request latencies of \p H in ms: one sample per request, spread
/// evenly over its histogram bucket.
void appendLatencies(const LatencyHistogram &H, std::vector<double> &Out) {
  uint64_t N = H.count();
  uint64_t K = 1;
  while (K <= N) {
    double F = (static_cast<double>(K) - 0.5) / static_cast<double>(N);
    unsigned Bucket = H.bucketIndex(H.percentile(F));
    uint64_t End = K;
    while (End < N &&
           H.bucketIndex(H.percentile((static_cast<double>(End) + 0.5) /
                                      static_cast<double>(N))) == Bucket)
      ++End;
    double Lo = static_cast<double>(std::max(H.bucketLowerBound(Bucket), H.min()));
    double Hi = static_cast<double>(std::min(H.bucketUpperBound(Bucket), H.max()));
    double Count = static_cast<double>(End - K + 1);
    for (uint64_t J = 0; J < End - K + 1; ++J)
      Out.push_back((Lo + (Hi - Lo) * (static_cast<double>(J) + 0.5) / Count) /
                    1e3);
    K = End + 1;
  }
}

NativeExecutorConfig baseConfig(const ExecPlan &Plan) {
  NativeExecutorConfig C;
  C.Mix = Plan.Mix;
  C.Load.MixWeights = Plan.Weights;
  C.Load.Seed = Plan.Seed ^ 0x10ad;
  C.Threads = Plan.Threads;
  C.Scale = Plan.Scale;
  C.Seed = Plan.Seed;
  C.TotalTransactions = 0;
  return C;
}

} // namespace

ExecMeasure perfbench::measureExec(const ExecPlan &Plan, double Seconds,
                                   SpanLog *Spans) {
  ExecMeasure M;
  uint64_t Window = 0;
  auto Run = [&](const NativeExecutorConfig &C) {
    std::string Error;
    int32_t Id = Spans ? Spans->begin(C.Load.Process == ArrivalProcess::ClosedLoop
                                          ? "exec.closed"
                                          : "exec.open",
                                      Window)
                       : -1;
    std::optional<NativeRunMetrics> Out = runNativeChecked(C, Error);
    if (Spans)
      Spans->end(Id);
    ++Window;
    if (!Out) {
      ++M.Attempted;
      ++M.Aborted;
      return Out;
    }
    M.Attempted += Out->Offered;
    M.Completed += Out->Completed;
    M.Aborted += Out->OomAborts + Out->CorruptionAborts;
    return Out;
  };
  int64_t Start = nowNs();
  uint64_t Round = 0;
  do {
    uint64_t Completed = 0;
    double Wall = 0;
    for (AllocatorKind K :
         {AllocatorKind::DDmalloc, AllocatorKind::TCMalloc, AllocatorKind::Default}) {
      NativeExecutorConfig C = baseConfig(Plan);
      C.Kind = K;
      C.Load.Process = ArrivalProcess::ClosedLoop;
      C.DurationSec = Plan.SaturationWindowSec;
      // A small queue is the closed loop's client population; it also
      // keeps the drain after the window short.
      C.QueueCapacity = 8 * Plan.Threads;
      C.PopBatch = 1;
      std::optional<NativeRunMetrics> Out = Run(C);
      if (!Out)
        continue;
      Completed += Out->Completed;
      Wall += Out->WallSec;
      M.ModelTxPerSec[Out->SharingModel].push_back(Out->Throughput);
      uint64_t Lo = UINT64_MAX, Hi = 0;
      for (const NativeThreadMetrics &T : Out->PerThread) {
        Lo = std::min(Lo, T.Completed);
        Hi = std::max(Hi, T.Completed);
      }
      double Mean = static_cast<double>(Out->Completed) /
                    static_cast<double>(Out->PerThread.size());
      M.Imbalance.push_back(Mean > 0 ? static_cast<double>(Hi - Lo) / Mean : 0.0);
    }

    NativeExecutorConfig C = baseConfig(Plan);
    C.Kind = AllocatorKind::DDmalloc;
    // A fresh arrival sequence per window, so a run's tail latency does
    // not hinge on the bursts of one sequence.
    C.Load.Seed += ++Round * 0x9e3779b97f4a7c15ull;
    C.Load.Process = ArrivalProcess::Poisson;
    C.Load.RatePerSec = Plan.OpenRatePerSec;
    C.DurationSec = Plan.OpenWindowSec;
    std::vector<double> LatencyMs;
    if (std::optional<NativeRunMetrics> Out = Run(C)) {
      appendLatencies(Out->LatencyUs, LatencyMs);
      M.QueueMaxDepth =
          std::max(M.QueueMaxDepth, static_cast<double>(Out->QueueMaxDepth));
    }
    if (Wall > 0)
      M.Open.Rates.push_back(static_cast<double>(Completed) / Wall);
    M.Open.TxMs.push_back(std::move(LatencyMs));
  } while (static_cast<double>(nowNs() - Start) / 1e9 < Seconds);
  return M;
}

std::vector<double> perfbench::serviceTimesMs(const ExecPlan &Plan, unsigned Tx,
                                              uint64_t &Bad, SpanLog *Spans,
                                              std::vector<double> *TracedMs) {
  std::vector<std::unique_ptr<TransactionRuntime>> Runtimes;
  for (size_t W = 0; W < Plan.Mix.size(); ++W) {
    RuntimeConfig C = phpConfig(AllocatorKind::DDmalloc, Plan.Seed, Plan.Scale);
    C.RngStream = W;
    Runtimes.push_back(std::make_unique<TransactionRuntime>(Plan.Mix[W], C));
    Runtimes.back()->executeTransaction(); // warm-up
  }
  LoadConfig L;
  L.MixWeights = Plan.Weights;
  L.Seed = Plan.Seed ^ 0x10ad;
  LoadGenerator Picks(L);
  std::vector<double> Ms;
  for (unsigned I = 0; I < Tx; ++I) {
    TransactionRuntime &RT = *Runtimes[Picks.pickWorkload() % Runtimes.size()];
    bool Trace = Spans && I % 2 == 1;
    int32_t Id = Trace ? Spans->begin("service", I) : -1;
    int64_t T0 = nowNs();
    TxStatus St = RT.executeTransaction();
    int64_t Ns = nowNs() - T0;
    if (Trace) {
      Spans->end(Id);
      TracedMs->push_back(ms(Ns));
    } else {
      Ms.push_back(ms(Ns));
    }
    Bad += St != TxStatus::Ok || RT.allocator().stats().UsableBytesLive != 0;
  }
  std::sort(Ms.begin(), Ms.end());
  return Ms;
}

void perfbench::setExecMetrics(const ExecMeasure &M,
                               const std::vector<double> &Service, Result &R) {
  for (const char *Model : {"sharded-pool", "shared-central", "private-heap"}) {
    auto It = M.ModelTxPerSec.find(Model);
    std::vector<double> V = It == M.ModelTxPerSec.end() ? std::vector<double>()
                                                        : It->second;
    R.set(std::string("exec.") + Model + ".tx_per_s", "1/s", median(V), V);
  }
  std::vector<double> Latency;
  for (const std::vector<double> &Round : M.Open.TxMs)
    Latency.insert(Latency.end(), Round.begin(), Round.end());
  std::sort(Latency.begin(), Latency.end());
  double ServiceP50 = percentile(Service, 0.5).value_or(0.0);
  R.set("exec.service_p50_ms", "ms", ServiceP50, Service);
  R.set("exec.queue_wait_p50_ms", "ms",
        percentile(Latency, 0.5).value_or(0.0) - ServiceP50);
  R.set("exec.queue_max_depth", "count", M.QueueMaxDepth);
  R.set("exec.thread_imbalance", "ratio", median(M.Imbalance), M.Imbalance);
}

namespace {

constexpr int SetupRepeats = 5;

ExecPlan servePlan(const Options &O) {
  ExecPlan Plan;
  Plan.Mix = {mediaWikiReadOnly(), mediaWikiReadWrite(), sugarCrm(), phpBb()};
  Plan.Weights = {3, 1, 1, 1};
  Plan.Seed = O.Seed;
  Plan.OpenRatePerSec = 200.0;
  return Plan;
}

void checkRun(const ExecMeasure &M, Result &R) {
  R.Attempted += M.Attempted;
  R.Failed += M.Aborted;
  if (M.Aborted)
    R.Failures.push_back("native-serve: transactions aborted");
  R.check(M.Completed + M.Aborted == M.Attempted,
          "native-serve: completed + aborted != offered");
}

} // namespace

Result perfbench::runNativeServe(const Options &O) {
  Result R;
  ExecPlan Plan = servePlan(O);
  if (!O.Trace) {
    std::vector<double> SetupSec;
    for (int I = 0; I < SetupRepeats; ++I) {
      int64_t T0 = nowNs();
      NativeExecutorConfig C = baseConfig(Plan);
      C.Load.Process = ArrivalProcess::ClosedLoop;
      C.TotalTransactions = 200;
      std::string Error;
      std::optional<NativeRunMetrics> Out = runNativeChecked(C, Error);
      R.check(Out && Out->Completed == C.TotalTransactions,
              "native-serve: warm-up run failed " + Error);
      SetupSec.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    }
    ExecMeasure M = measureExec(Plan, O.Seconds);
    checkRun(M, R);
    setEndToEnd(R, SetupSec, M.Open);
    R.InputDigest = inputDigest({Plan.Mix, O.Seed, Plan.Scale, O.OutDir});
    return R;
  }

  // Traced: the exec layer comes from the loop itself. Every native window
  // is a span; of the single-thread service transactions every other one
  // is, which gives the tracing overhead.
  SpanLog Spans;
  ExecMeasure M = measureExec(Plan, O.Seconds * 0.5, &Spans);
  checkRun(M, R);
  uint64_t Bad = 0;
  std::vector<double> Traced;
  std::vector<double> Service = serviceTimesMs(Plan, 800, Bad, &Spans, &Traced);
  R.check(Bad == 0, "native-serve: a service-time transaction failed");
  setExecMetrics(M, Service, R);
  auto Mean = [](const std::vector<double> &V) {
    double Sum = 0;
    for (double X : V)
      Sum += X;
    return Sum / static_cast<double>(V.size());
  };
  R.set("bench.trace_overhead_frac", "ratio", Mean(Traced) / Mean(Service) - 1.0);
  std::string SpanPath = O.OutDir + "/spans-native-serve.jsonl";
  R.check(Spans.write(SpanPath), "native-serve: cannot write " + SpanPath);

  LayerInputs In{Plan.Mix, O.Seed, Plan.Scale, O.OutDir};
  runProbes(In, {Layer::Exec}, R);
  R.InputDigest = inputDigest(In);
  return R;
}
