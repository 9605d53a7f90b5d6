//===- examples/loadtest.cpp - Drive the serving simulation ---------------===//
///
/// \file
/// A configurable load test against the simulated multicore server: pick a
/// workload mix, an allocator, an arrival process, and an offered load,
/// and read the tail latency off the report — the operator's view of the
/// paper's allocator study:
///
///   ./build/examples/loadtest --workload mediawiki-read --allocator region
///       --platform xeon --cores 8 --arrival poisson --rps 300
///
/// `--rps 0` (the default) offers 85% of the selected allocator's modelled
/// capacity. A mix is written "name:weight,name:weight".
///
//===----------------------------------------------------------------------===//

#include "exec/NativeExecutor.h"
#include "server/ServingSimulator.h"
#include "support/ArgParse.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Table.h"
#include "trace/TraceInput.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>

using namespace ddm;

namespace {

/// Parses "name[:weight],name[:weight],..." into specs + weights.
bool parseMix(const std::string &Text, std::vector<WorkloadSpec> &Mix,
              std::vector<double> &Weights) {
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Item = Text.substr(Pos, Comma - Pos);
    double Weight = 1.0;
    size_t Colon = Item.find(':');
    if (Colon != std::string::npos) {
      char *End = nullptr;
      Weight = std::strtod(Item.c_str() + Colon + 1, &End);
      if (!End || *End != '\0' || Weight <= 0) {
        std::fprintf(stderr, "bad mix weight in '%s'\n", Item.c_str());
        return false;
      }
      Item.resize(Colon);
    }
    const WorkloadSpec *W = findWorkload(Item);
    if (!W) {
      std::fprintf(stderr, "unknown workload '%s'; try --help\n",
                   Item.c_str());
      return false;
    }
    Mix.push_back(*W);
    Weights.push_back(Weight);
    Pos = Comma + 1;
  }
  return !Mix.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadMix = "mediawiki-read";
  std::string PlatformName = "xeon";
  std::string AllocatorName = "ddmalloc";
  std::string ArrivalName = "poisson";
  std::string PolicyName = "fifo";
  unsigned Cores = 8;
  uint64_t DurationTx = 2000;
  uint64_t QueueCap = 512;
  unsigned Clients = 32;
  unsigned Samples = 12;
  uint64_t Seed = 1;
  double Rps = 0.0;
  double ThinkMs = 100.0;
  double BurstBoost = 4.0;
  double BurstOn = 0.2;
  double Scale = 0.2;
  ArgParser Parser(
      "Open- or closed-loop load test of a workload mix on the simulated "
      "multicore server; reports latency percentiles, queueing, drops, and "
      "goodput for the chosen allocator.");
  Parser.addFlag("workload", &WorkloadMix,
                 "workload mix, e.g. 'mediawiki-read' or "
                 "'mediawiki-read:3,sugarcrm:1'");
  Parser.addFlag("platform", &PlatformName, "xeon or niagara (sim mode)");
  Parser.addFlag("allocator", &AllocatorName, allocatorNamesJoined());
  Parser.addFlag("arrival", &ArrivalName, "poisson, bursty, or closed");
  std::string Mode = "sim";
  unsigned Threads = 4;
  double DurationSec = 0.0;
  Parser.addFlag("mode", &Mode,
                 "sim = serving simulation on the machine model (default); "
                 "native = real std::thread workers executing genuine "
                 "transactions, wall-clock latency");
  Parser.addFlag("threads", &Threads, "native mode: worker thread count");
  Parser.addFlag("duration-sec", &DurationSec,
                 "native mode: stop after this much wall time instead of "
                 "--duration-tx requests (0 = use --duration-tx)");
  Parser.addFlag("policy", &PolicyName, "queue policy: fifo or sjf");
  Parser.addFlag("cores", &Cores, "active cores");
  Parser.addFlag("rps", &Rps,
                 "offered requests/sec (0 = 85% of modelled capacity)");
  Parser.addFlag("duration-tx", &DurationTx,
                 "requests to offer (open loop) / complete (closed loop)");
  Parser.addFlag("queue-cap", &QueueCap, "admission queue bound");
  Parser.addFlag("clients", &Clients, "closed-loop client population");
  Parser.addFlag("think-ms", &ThinkMs, "closed-loop mean think time (ms)");
  Parser.addFlag("burst-boost", &BurstBoost, "bursty on-phase rate multiplier");
  Parser.addFlag("burst-on", &BurstOn, "bursty on-phase time fraction");
  Parser.addFlag("samples", &Samples, "profiled transactions per workload");
  Parser.addFlag("scale", &Scale, "workload scale");
  Parser.addFlag("seed", &Seed, "random seed");
  std::string FaultsSpec;
  uint64_t RestartEvery = 0;
  double RestartCostMs = 0.0;
  bool RestartOnOom = false;
  bool RestartOnCorruption = false;
  bool Harden = false;
  uint64_t HeapPerTx = 0;
  uint64_t MaxAttempts = 4;
  double RetryBackoffMs = 50.0;
  bool JsonOut = false;
  Parser.addFlag("faults", &FaultsSpec,
                 "deterministic fault plan for the serving phase, e.g. "
                 "'seed=7,worker_heap:p=0.01' (sites: " +
                     faultSiteNamesJoined() +
                     "; triggers: p=, every=, after=)");
  std::string BackendName = "arena";
  Parser.addFlag("backend", &BackendName,
                 "page economy behind the allocator heaps: arena (private "
                 "reservations) or buddy (shared buddy page backend; sim "
                 "mode only)");
  Parser.addFlag("restart-every", &RestartEvery,
                 "restart a worker after serving this many requests "
                 "(0 = never)");
  Parser.addFlag("restart-cost-ms", &RestartCostMs,
                 "downtime of one worker restart (ms)");
  Parser.addFlag("restart-on-oom", &RestartOnOom,
                 "restart the worker that served a failed (OOM) request");
  Parser.addFlag("restart-on-corruption", &RestartOnCorruption,
                 "restart the worker whose transaction aborted on detected "
                 "heap corruption");
  Parser.addFlag("harden", &Harden,
                 "wrap every allocator heap in the hardening layer "
                 "(red-zone canaries + poisoned quarantine)");
  Parser.addFlag("heap-per-tx", &HeapPerTx,
                 "modelled worker-heap growth per request, bytes (restart "
                 "resets it)");
  Parser.addFlag("max-attempts", &MaxAttempts,
                 "closed loop: attempts per request before the client gives "
                 "up (1 = no retries)");
  Parser.addFlag("retry-backoff-ms", &RetryBackoffMs,
                 "closed loop: base retry backoff, doubling per attempt (ms)");
  Parser.addFlag("json", &JsonOut, "emit the serving metrics as JSON");
  std::string RecordTrace;
  std::string ReplayTrace;
  Parser.addFlag("record-trace", &RecordTrace,
                 "record the profiling run's allocation trace to this "
                 ".ddmtrc file (single-workload mix only)");
  Parser.addFlag("replay-trace", &ReplayTrace,
                 "profile service times by replaying this .ddmtrc file "
                 "(workload/scale/seed/sample count come from the trace)");
  std::string ReaderName = "auto";
  Parser.addFlag("reader", &ReaderName,
                 "trace reader for --replay-trace: auto (mmap for regular "
                 "files), stream, or mmap");
  if (!Parser.parse(Argc, Argv))
    return 1;
  if (Samples == 0 || Threads == 0) {
    std::fprintf(stderr, "error: --%s must be at least 1\n",
                 Samples == 0 ? "samples" : "threads");
    return 1;
  }
  if (!RecordTrace.empty() && !ReplayTrace.empty()) {
    std::fprintf(stderr, "--record-trace and --replay-trace are exclusive\n");
    return 1;
  }
  TraceReaderKind ReaderKind = TraceReaderKind::Auto;
  if (!traceReaderKindFromName(ReaderName, ReaderKind)) {
    std::fprintf(stderr, "unknown --reader '%s' (auto, stream, or mmap)\n",
                 ReaderName.c_str());
    return 1;
  }

  if (!ReplayTrace.empty()) {
    // Validate up front and adopt the trace's provenance: the profiling
    // stage then relives the recorded transactions bit for bit.
    TraceSummary Summary;
    if (TraceStatus S = summarizeTrace(ReplayTrace, Summary, ReaderKind); !S) {
      std::fprintf(stderr, "bad trace '%s': %s\n", ReplayTrace.c_str(),
                   S.describe().c_str());
      return 1;
    }
    WorkloadMix = Summary.Meta.Workload;
    Scale = Summary.Meta.Scale;
    Seed = Summary.Meta.Seed;
    // Profile over the whole recorded run (1 warmup + the rest sampled)
    // so the replayed model reproduces the recorded one exactly.
    if (Summary.Transactions < 2) {
      std::fprintf(stderr,
                   "trace '%s' holds %llu transaction(s); profiling needs "
                   "at least 2 (1 warmup + 1 sampled)\n",
                   ReplayTrace.c_str(),
                   static_cast<unsigned long long>(Summary.Transactions));
      return 1;
    }
    Samples = std::min<uint64_t>(Summary.Transactions - 1, UINT_MAX);
    std::fprintf(stderr,
                 "profiling from trace %s (%llu transactions, workload %s)\n",
                 ReplayTrace.c_str(),
                 static_cast<unsigned long long>(Summary.Transactions),
                 Summary.Meta.Workload.c_str());
  }

  std::vector<WorkloadSpec> Mix;
  std::vector<double> Weights;
  if (!parseMix(WorkloadMix, Mix, Weights))
    return 1;
  if (Mix.size() > 1 && !(RecordTrace.empty() && ReplayTrace.empty())) {
    std::fprintf(stderr, "trace record/replay needs a single-workload mix "
                         "(one trace file holds one workload's feed)\n");
    return 1;
  }
  auto P = platformByName(PlatformName);
  if (!P) {
    std::fprintf(stderr, "unknown platform '%s' (xeon or niagara)\n",
                 PlatformName.c_str());
    return 1;
  }
  std::string Error;
  if (!validateActiveCores(*P, Cores, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  auto Kind = allocatorKindFromName(AllocatorName);
  if (!Kind) {
    std::fprintf(stderr, "unknown allocator '%s'; try --help\n",
                 AllocatorName.c_str());
    return 1;
  }
  auto Arrival = arrivalProcessFromName(ArrivalName);
  if (!Arrival) {
    std::fprintf(stderr, "unknown arrival process '%s' (poisson, bursty, "
                 "closed)\n",
                 ArrivalName.c_str());
    return 1;
  }
  auto Policy = queuePolicyFromName(PolicyName);
  if (!Policy) {
    std::fprintf(stderr, "unknown policy '%s' (fifo or sjf)\n",
                 PolicyName.c_str());
    return 1;
  }
  if (MaxAttempts < 1) {
    std::fprintf(stderr, "--max-attempts must be at least 1\n");
    return 1;
  }
  FaultPlan Faults;
  if (!FaultsSpec.empty()) {
    std::string FaultError;
    if (!FaultPlan::parse(FaultsSpec, Faults, FaultError)) {
      std::fprintf(stderr, "bad --faults spec: %s\n", FaultError.c_str());
      return 1;
    }
  }
  std::optional<PageBackendKind> Backend = pageBackendKindFromName(BackendName);
  if (!Backend) {
    std::fprintf(stderr, "error: unknown backend '%s' (expected arena, buddy)\n",
                 BackendName.c_str());
    return 1;
  }
  if (*Backend == PageBackendKind::Buddy && Mode == "native") {
    std::fprintf(stderr,
                 "--backend buddy is sim-mode only: native workers build "
                 "their heaps through the thread-heap registry, which keeps "
                 "private per-thread reservations\n");
    return 1;
  }

  if (Mode == "native") {
    if (!RecordTrace.empty() || !ReplayTrace.empty()) {
      std::fprintf(stderr, "trace record/replay is sim-mode only\n");
      return 1;
    }
    if (!FaultsSpec.empty())
      FaultInjector::instance().arm(Faults);

    NativeExecutorConfig NC;
    NC.Kind = *Kind;
    NC.Options.Hardening.Enabled = Harden;
    NC.Mix = Mix;
    // rps <= 0 means saturation: no real-time pacing, the bounded queue is
    // the back-pressure (there is no capacity model to derive a rate from
    // in native mode).
    NC.Load.Process = Rps > 0 ? *Arrival : ArrivalProcess::ClosedLoop;
    NC.Load.RatePerSec = Rps;
    NC.Load.BurstBoost = BurstBoost;
    NC.Load.BurstOnFraction = BurstOn;
    NC.Load.MixWeights = Weights;
    NC.Load.Seed = Seed;
    NC.Threads = Threads;
    NC.TotalTransactions = DurationSec > 0.0 ? 0 : DurationTx;
    NC.DurationSec = DurationSec;
    NC.QueueCapacity = QueueCap;
    NC.Scale = Scale;
    NC.Seed = Seed;
    NC.RestartPeriodTx = RestartEvery;

    std::string NativeError;
    std::optional<NativeRunMetrics> M = runNativeChecked(NC, NativeError);
    if (!M) {
      std::fprintf(stderr, "native run failed: %s\n", NativeError.c_str());
      return 1;
    }

    if (JsonOut) {
      JsonWriter J;
      J.beginObject()
          .field("mode", std::string("native"))
          .field("allocator", allocatorKindName(*Kind))
          .field("threads", Threads)
          .field("sharing", M->SharingModel)
          .field("faults", FaultsSpec.empty() ? std::string("none")
                                              : Faults.describe())
          .field("harden", Harden)
          .field("offered", M->Offered)
          .field("completed", M->Completed)
          .field("oom_aborts", M->OomAborts)
          .field("corruption_aborts", M->CorruptionAborts)
          .field("wall_sec", M->WallSec)
          .field("throughput_rps", M->Throughput)
          .field("p50_us", M->LatencyUs.percentile(0.50))
          .field("p90_us", M->LatencyUs.percentile(0.90))
          .field("p99_us", M->LatencyUs.percentile(0.99))
          .field("p999_us", M->LatencyUs.percentile(0.999))
          .field("mean_latency_us", M->LatencyUs.mean())
          .field("queue_max_depth", M->QueueMaxDepth)
          .field("malloc_calls", M->Allocator.MallocCalls)
          .field("free_calls", M->Allocator.FreeCalls)
          .field("peak_live_bytes", M->Allocator.PeakUsableBytesLive)
          .endObject();
      std::printf("%s\n", J.str().c_str());
      return 0;
    }

    std::printf("native run: allocator %s, %llu thread(s), sharing %s, "
                "scale %.2f\n\n",
                allocatorKindName(*Kind),
                static_cast<unsigned long long>(Threads),
                M->SharingModel.c_str(), Scale);
    Table Out({"metric", "value"});
    Out.row().cell("offered").cell(M->Offered);
    Out.row().cell("completed").cell(M->Completed);
    Out.row().cell("oom aborts").cell(M->OomAborts);
    Out.row().cell("corruption aborts").cell(M->CorruptionAborts);
    Out.row().cell("wall time s").cell(M->WallSec, 3);
    Out.row().cell("throughput rq/s").cell(M->Throughput, 1);
    Out.row().cell("p50 latency us").cell(M->LatencyUs.percentile(0.50));
    Out.row().cell("p90 latency us").cell(M->LatencyUs.percentile(0.90));
    Out.row().cell("p99 latency us").cell(M->LatencyUs.percentile(0.99));
    Out.row().cell("mean latency us").cell(M->LatencyUs.mean(), 1);
    Out.row().cell("max queue depth").cell(M->QueueMaxDepth);
    Out.row().cell("malloc calls").cell(M->Allocator.MallocCalls);
    std::fputs(Out.renderAscii().c_str(), stdout);
    std::printf("\nper-thread completions:");
    for (const NativeThreadMetrics &T : M->PerThread)
      std::printf(" %llu", static_cast<unsigned long long>(T.Completed));
    std::printf("\n");
    return 0;
  }
  if (Mode != "sim") {
    std::fprintf(stderr, "unknown --mode '%s' (sim or native)\n",
                 Mode.c_str());
    return 1;
  }
  {
    // Fail with a clean diagnostic (not an abort) if the allocator's heap
    // reservation cannot be satisfied on this system.
    std::string AllocError;
    if (!createAllocatorChecked(*Kind, AllocatorOptions(), AllocError)) {
      std::fprintf(stderr, "cannot set up allocator '%s': %s\n",
                   AllocatorName.c_str(), AllocError.c_str());
      return 1;
    }
  }

  SimulationOptions Options;
  Options.Scale = Scale;
  Options.WarmupTx = 1;
  Options.MeasureTx = Samples;
  Options.Seed = Seed;
  Options.Hardening.Enabled = Harden;
  Options.Backend = *Backend;

  TraceRecorder Recorder;
  if (!RecordTrace.empty()) {
    TraceMeta Meta;
    Meta.Workload = Mix.front().Name;
    Meta.Scale = Scale;
    Meta.Seed = Seed;
    if (TraceStatus S = Recorder.open(RecordTrace, Meta); !S) {
      std::fprintf(stderr, "cannot record '%s': %s\n", RecordTrace.c_str(),
                   S.describe().c_str());
      return 1;
    }
    Options.RecordSink = &Recorder;
  }
  TraceReplayer Replayer;
  if (!ReplayTrace.empty()) {
    if (TraceStatus S = Replayer.open(ReplayTrace, ReaderKind); !S) {
      std::fprintf(stderr, "cannot replay '%s': %s\n", ReplayTrace.c_str(),
                   S.describe().c_str());
      return 1;
    }
    Options.ReplaySource = &Replayer;
  }

  ServiceTimeModel Model = buildServiceTimeModel(
      Mix, *Kind, *P, Cores, Options);
  if (Options.RecordSink) {
    if (TraceStatus S = Recorder.finish(); !S) {
      std::fprintf(stderr, "recording '%s' failed: %s\n", RecordTrace.c_str(),
                   S.describe().c_str());
      return 1;
    }
    std::fprintf(
        stderr, "recorded %llu transactions (%llu events, %llu bytes) to %s\n",
        static_cast<unsigned long long>(Recorder.transactionsRecorded()),
        static_cast<unsigned long long>(Recorder.eventsRecorded()),
        static_cast<unsigned long long>(Recorder.bytesWritten()),
        RecordTrace.c_str());
  }
  // The serving phase below draws from the profiled service-time model
  // only; record/replay concerns the profiling transactions.
  Options.RecordSink = nullptr;
  Options.ReplaySource = nullptr;
  double Capacity = Model.capacityRps(Weights);
  if (Rps <= 0)
    Rps = 0.85 * Capacity;

  // Arm the fault plan only now: the profiling runs above must stay
  // fault-free so the service-time model matches the fault-free baseline.
  if (!FaultsSpec.empty())
    FaultInjector::instance().arm(Faults);

  if (!JsonOut) {
    std::printf("allocator %s on %llu %s-like core(s) (%u workers), scale "
                "%.2f\n",
                allocatorKindName(*Kind),
                static_cast<unsigned long long>(Cores), P->Name.c_str(),
                Model.Workers, Scale);
    Table ModelOut({"workload", "base service ms", "slowdown @full pool",
                    "capacity rq/s"});
    for (size_t I = 0; I < Model.Workloads.size(); ++I) {
      const auto &W = Model.Workloads[I];
      ModelOut.row()
          .cell(W.Name)
          .cell(W.BaseServiceSec * 1e3, 3)
          .cell(W.Slowdown[Model.Workers - 1], 2)
          .cell(static_cast<double>(Model.Workers) /
                    (W.BaseServiceSec * W.Slowdown[Model.Workers - 1]),
                1);
    }
    std::fputs(ModelOut.renderAscii().c_str(), stdout);
    std::printf("mixed capacity %.1f rq/s; offering %.1f rq/s (%s, %s)\n\n",
                Capacity, Rps, arrivalProcessName(*Arrival),
                queuePolicyName(*Policy));
  }

  ServingConfig Config;
  Config.Load.Process = *Arrival;
  Config.Load.RatePerSec = Rps;
  Config.Load.BurstBoost = BurstBoost;
  Config.Load.BurstOnFraction = BurstOn;
  Config.Load.Clients = Clients;
  Config.Load.MeanThinkSec = ThinkMs / 1e3;
  Config.Load.MixWeights = Weights;
  Config.Load.Seed = Seed;
  Config.Policy = *Policy;
  Config.QueueCapacity = QueueCap;
  Config.DurationTx = DurationTx;
  Config.Restart.EveryNTx = RestartEvery;
  Config.Restart.OnOom = RestartOnOom;
  Config.Restart.OnCorruption = RestartOnCorruption;
  Config.Restart.RestartCostSec = RestartCostMs / 1e3;
  Config.Restart.HeapBytesPerTx = HeapPerTx;
  Config.MaxAttempts = MaxAttempts;
  Config.RetryBackoffSec = RetryBackoffMs / 1e3;

  ServingMetrics M = runServing(Model, Config);

  if (JsonOut) {
    JsonWriter J;
    J.beginObject()
        .field("allocator", allocatorKindName(*Kind))
        .field("platform", P->Name)
        .field("cores", Cores)
        .field("workers", Model.Workers)
        .field("arrival", arrivalProcessName(*Arrival))
        .field("policy", queuePolicyName(*Policy))
        .field("capacity_rps", Capacity)
        .field("faults", FaultsSpec.empty() ? std::string("none")
                                            : Faults.describe())
        .field("restart_every_tx", RestartEvery)
        .field("restart_on_oom", RestartOnOom)
        .field("restart_on_corruption", RestartOnCorruption)
        .field("harden", Harden)
        .field("restart_cost_ms", RestartCostMs)
        .field("max_attempts", MaxAttempts)
        .field("offered_rps", M.OfferedRps)
        .field("goodput_rps", M.GoodputRps)
        .field("makespan_sec", M.MakespanSec)
        .field("offered", M.Offered)
        .field("completed", M.Completed)
        .field("dropped", M.Dropped)
        .field("failed", M.Failed)
        .field("retried", M.Retried)
        .field("unfinished", M.Unfinished)
        .field("corruption_aborts", M.CorruptionAborts)
        .field("restarts", M.Restarts)
        .field("restart_downtime_sec", M.RestartDowntimeSec)
        .field("peak_worker_heap_bytes", M.PeakWorkerHeapBytes)
        .field("p50_ms", M.p50Ms())
        .field("p90_ms", M.p90Ms())
        .field("p99_ms", M.p99Ms())
        .field("p999_ms", M.p999Ms())
        .field("mean_latency_ms", M.meanLatencyMs())
        .field("mean_wait_ms", M.meanWaitMs())
        .field("mean_queue_depth", M.QueueDepthAtArrival.mean())
        .field("utilization", M.Utilization)
        .endObject();
    std::printf("%s\n", J.str().c_str());
    return 0;
  }

  Table Out({"metric", "value"});
  Out.row().cell("offered rq/s").cell(M.OfferedRps, 1);
  Out.row().cell("goodput rq/s").cell(M.GoodputRps, 1);
  Out.row().cell("completed").cell(M.Completed);
  Out.row().cell("dropped").cell(M.Dropped);
  Out.row().cell("drop rate %").cell(100.0 * M.dropRate(), 2);
  Out.row().cell("failed").cell(M.Failed);
  Out.row().cell("retried").cell(M.Retried);
  Out.row().cell("corruption aborts").cell(M.CorruptionAborts);
  Out.row().cell("restarts").cell(M.Restarts);
  Out.row().cell("restart downtime s").cell(M.RestartDowntimeSec, 3);
  Out.row().cell("p50 latency ms").cell(M.p50Ms(), 2);
  Out.row().cell("p90 latency ms").cell(M.p90Ms(), 2);
  Out.row().cell("p99 latency ms").cell(M.p99Ms(), 2);
  Out.row().cell("p999 latency ms").cell(M.p999Ms(), 2);
  Out.row().cell("mean latency ms").cell(M.meanLatencyMs(), 2);
  Out.row().cell("mean wait ms").cell(M.meanWaitMs(), 2);
  Out.row().cell("mean queue depth").cell(M.QueueDepthAtArrival.mean(), 1);
  Out.row().cell("max queue depth").cell(M.QueueDepthAtArrival.max(), 0);
  Out.row().cell("worker utilization %").cell(100.0 * M.Utilization, 1);
  std::fputs(Out.renderAscii().c_str(), stdout);

  std::printf("\nlatency distribution (us):\n%s",
              M.LatencyUs.render().c_str());
  std::printf("\nTry --allocator region vs --allocator ddmalloc at the same "
              "--rps near capacity: the region allocator's bus saturation "
              "shows up as queue growth and a p99 blowup.\n");
  return 0;
}
