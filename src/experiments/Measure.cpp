//===- experiments/Measure.cpp - Shared experiment harness ----------------===//

#include "experiments/Measure.h"

#include "core/AdaptiveAllocator.h"
#include "page/SlabAllocator.h"
#include "support/Error.h"
#include "trace/TraceReplayer.h"

#include <cassert>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

using namespace ddm;

namespace {

/// Runs one transaction: generated live, or — when a replay source is
/// set — relived from the recorded trace. Replay problems are fatal here;
/// drivers validate traces up front (summarizeTrace) for clean errors.
void runOneTransaction(TransactionRuntime &Runtime,
                       const SimulationOptions &Options) {
  if (!Options.ReplaySource) {
    Runtime.executeTransaction();
    return;
  }
  switch (Options.ReplaySource->replayTransaction(Runtime)) {
  case TraceReplayer::Step::Tx:
    return;
  case TraceReplayer::Step::End:
    fatal("trace replay: the trace has fewer transactions than this run "
          "needs (replayed " +
          std::to_string(Options.ReplaySource->transactionsReplayed()) + ")");
  case TraceReplayer::Step::Error:
    fatal("trace replay failed: " +
          Options.ReplaySource->status().describe());
  }
}

/// The one place simulation options are mapped into the runtime's
/// configuration. Replay forces the recorded provenance onto the run so
/// the runtime's auxiliary random streams (touch offsets, Ruby leak
/// decisions) line up with the recorded process.
RuntimeConfig runtimeConfig(RuntimeConfig Config,
                            const SimulationOptions &Options,
                            const std::shared_ptr<PageBackend> &Backend) {
  Config.Scale = Options.Scale;
  Config.Seed = Options.Seed;
  // The runtime process id feeds DDmalloc's metadata coloring; derive a
  // stable id from the seed so multi-process experiments differ.
  if (Config.AllocOptions.ProcessId == 0)
    Config.AllocOptions.ProcessId = static_cast<uint32_t>(Options.Seed % 64);
  Config.AllocOptions.LargePages = Options.LargePages;
  if (Options.Hardening.Enabled && !Config.AllocOptions.Hardening.Enabled)
    Config.AllocOptions.Hardening = Options.Hardening;
  if (Backend)
    Config.AllocOptions.Backend = Backend;
  if (Options.ReplaySource) {
    const TraceMeta &Meta = Options.ReplaySource->meta();
    Config.Scale = Meta.Scale;
    Config.Seed = Meta.Seed;
    if (Config.AllocOptions.ProcessId == 0)
      Config.AllocOptions.ProcessId = static_cast<uint32_t>(Meta.Seed % 64);
  }
  return Config;
}

/// One simulated runtime process, in three steps: set up (the
/// constructor, which also runs the warm-up), run windows of
/// transactions, finish.
class SimulationSession {
public:
  /// Builds the machine model, the page backend, the optional sampler tee
  /// and the runtime — in that order: canonical address bases are handed
  /// out in mapRegion order — then runs and flushes the warm-up so its
  /// buffered events stay out of the first window.
  SimulationSession(const WorkloadSpec &Workload,
                    const RuntimeConfig &RuntimeCfg, const Platform &P,
                    unsigned ActiveCores, const SimulationOptions &Options)
      : Options(Options), P(P), ActiveCores(ActiveCores),
        AppCodeFootprintBytes(Workload.AppCodeFootprintBytes),
        Sink(P, ActiveCores, Options.LargePages),
        Backend(Options.Backend == PageBackendKind::Buddy
                    ? createBuddyBackend(Options.BackendReserveBytes)
                    : nullptr),
        // With sampling on, the runtime talks to the sampler and the
        // sampler forwards (plus its modeled overhead) to the machine.
        Sampler(Options.Sampling
                    ? std::make_unique<AccessSampler>(&Sink, Options.Sampler)
                    : nullptr),
        Top(Sampler ? static_cast<AccessSink *>(Sampler.get()) : &Sink),
        Runtime(Workload, runtimeConfig(RuntimeCfg, Options, Backend), Top) {
    Runtime.attachTraceSink(Options.RecordSink);
    runWindow(Options.WarmupTx);
  }

  /// Runs \p Transactions transactions and flushes the buffered events,
  /// so the counters cover exactly this window.
  void runWindow(unsigned Transactions) {
    for (unsigned I = 0; I < Transactions; ++I)
      runOneTransaction(Runtime, Options);
    Top->flush();
  }

  /// Zeroes the machine model's counters: the next window starts clean.
  void resetCounters() { Sink.resetCounters(); }

  /// Records a sampler snapshot named \p Phase (no-op without sampling).
  void snapshot(const std::string &Phase) {
    if (Sampler)
      Point.SamplerPhases.push_back(Sampler->snapshot(Phase));
  }

  /// The counters since the last reset, averaged over \p Transactions.
  PerTxEvents events(unsigned Transactions) const {
    return averageEvents(Sink, Transactions, AppCodeFootprintBytes,
                         Runtime.allocatorCodeFootprintBytes());
  }

  TransactionRuntime &runtime() { return Runtime; }

  /// Finishes the run: the sampler's region table, the cold give-back,
  /// the averaged events and their performance, and the memory, page and
  /// adaptive fields.
  SimPoint finish(unsigned MeasuredTx) {
    if (Sampler)
      Point.SamplerRegions = Sampler->regions();
    // Cold give-back: the monitor decides whether reclaim fires. Without
    // a sampler the give-back is unconditional (madvise everything free).
    if (Options.ColdGiveBack && Backend) {
      if (auto *Buddy = dynamic_cast<BuddyPageBackend *>(Backend.get()))
        if (!Sampler || Sampler->coldBytes() > 0)
          Point.AdvisedOutBytes = Buddy->adviseOut();
    }
    Point.Events = events(MeasuredTx);
    Point.Perf = evaluatePerformance(P, Point.Events, ActiveCores);
    Point.MeanConsumptionBytes = Runtime.metrics().ConsumptionBytes.mean();
    Point.Metrics = Runtime.metrics();
    if (Backend) {
      Point.PageStats = Backend->stats();
      Point.RssBytes = Point.PageStats->residentBytes();
    } else if (auto *Slab =
                   dynamic_cast<SlabAllocator *>(&Runtime.allocator())) {
      // A private slab central has a buddy inside: its page economy is
      // observable even without an external backend.
      Point.PageStats = Slab->pageStats();
    }
    if (auto *Adaptive =
            dynamic_cast<AdaptiveAllocator *>(&Runtime.allocator())) {
      Point.StrategySwitches = Adaptive->strategySwitches();
      Point.FinalStrategy = allocatorKindName(Adaptive->currentStrategy());
    }
    return std::move(Point);
  }

  /// The snapshots taken so far.
  std::vector<SamplerSnapshot> &samplerPhases() { return Point.SamplerPhases; }

private:
  const SimulationOptions &Options;
  const Platform &P;
  unsigned ActiveCores;
  double AppCodeFootprintBytes;
  SimSink Sink;
  std::shared_ptr<PageBackend> Backend;
  std::unique_ptr<AccessSampler> Sampler;
  AccessSink *Top;
  TransactionRuntime Runtime;
  SimPoint Point;
};

} // namespace

SimPoint ddm::simulateRuntime(const WorkloadSpec &Workload,
                              const RuntimeConfig &RuntimeCfg,
                              const Platform &P, unsigned ActiveCores,
                              const SimulationOptions &Options) {
  assert(Options.MeasureTx > 0 && "need at least one measured transaction");
  SimulationSession Session(Workload, RuntimeCfg, P, ActiveCores, Options);
  Session.snapshot("warmup");
  Session.resetCounters();
  Session.runWindow(Options.MeasureTx);
  Session.snapshot("measure");
  return Session.finish(Options.MeasureTx);
}

SimPoint ddm::simulate(const WorkloadSpec &Workload, AllocatorKind Kind,
                       const Platform &P, unsigned ActiveCores,
                       const SimulationOptions &Options) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = true;
  return simulateRuntime(Workload, Config, P, ActiveCores, Options);
}

SimPoint ddm::simulatePhases(const std::vector<WorkloadSpec> &Phases,
                             const RuntimeConfig &RuntimeCfg, const Platform &P,
                             unsigned ActiveCores,
                             const SimulationOptions &Options) {
  assert(!Phases.empty() && "need at least one phase");
  assert(!Options.ReplaySource && "phase runs cannot replay a trace");
  assert(Options.MeasureTx > 0 && "need at least one measured transaction");
  SimulationSession Session(Phases.front(), RuntimeCfg, P, ActiveCores,
                            Options);
  Session.snapshot("warmup");
  Session.resetCounters();
  for (const WorkloadSpec &Phase : Phases) {
    Session.runtime().setWorkload(Phase);
    Session.runWindow(Options.MeasureTx);
    Session.snapshot(Phase.Name);
  }
  return Session.finish(Options.MeasureTx *
                        static_cast<unsigned>(Phases.size()));
}

ServiceProfile ddm::profileService(const WorkloadSpec &Workload,
                                   const RuntimeConfig &RuntimeCfg,
                                   const Platform &P, unsigned ActiveCores,
                                   unsigned SampleTx,
                                   const SimulationOptions &Options) {
  assert(SampleTx > 0 && "need at least one sampled transaction");
  SimulationSession Session(Workload, RuntimeCfg, P, ActiveCores, Options);

  // One counter window per transaction: the per-transaction events feed a
  // single-core performance evaluation whose cycles become that
  // transaction's relative service demand.
  DomainEvents AppSum, MmSum;
  std::vector<double> Cycles;
  Cycles.reserve(SampleTx);
  double CycleSum = 0.0;
  for (unsigned I = 0; I < SampleTx; ++I) {
    Session.resetCounters();
    Session.runWindow(1);
    PerTxEvents E = Session.events(1);
    AppSum += E.App;
    MmSum += E.Mm;
    Cycles.push_back(evaluatePerformance(P, E, 1).CyclesPerTx);
    CycleSum += Cycles.back();
  }

  ServiceProfile Profile;
  Session.snapshot(Workload.Name);
  Profile.SamplerPhases = std::move(Session.samplerPhases());

  auto Divide = [SampleTx](const DomainEvents &Sum) {
    auto Scale = [SampleTx](uint64_t V) {
      return static_cast<uint64_t>(
          std::llround(static_cast<double>(V) / SampleTx));
    };
    DomainEvents Out;
    Out.Instructions = Scale(Sum.Instructions);
    Out.LineAccesses = Scale(Sum.LineAccesses);
    Out.L1DMisses = Scale(Sum.L1DMisses);
    Out.L2Hits = Scale(Sum.L2Hits);
    Out.L2Misses = Scale(Sum.L2Misses);
    Out.TlbMisses = Scale(Sum.TlbMisses);
    Out.Writebacks = Scale(Sum.Writebacks);
    Out.PrefetchesIssued = Scale(Sum.PrefetchesIssued);
    Out.PrefetchesUseful = Scale(Sum.PrefetchesUseful);
    return Out;
  };
  Profile.MeanEvents.App = Divide(AppSum);
  Profile.MeanEvents.Mm = Divide(MmSum);
  Profile.MeanEvents.AppCodeFootprintBytes = Workload.AppCodeFootprintBytes;
  Profile.MeanEvents.AllocCodeFootprintBytes =
      Session.runtime().allocatorCodeFootprintBytes();

  double MeanCycles = CycleSum / SampleTx;
  Profile.RelativeWeights.reserve(SampleTx);
  for (double C : Cycles)
    Profile.RelativeWeights.push_back(MeanCycles > 0 ? C / MeanCycles : 1.0);
  return Profile;
}

std::optional<PageBackendKind>
ddm::pageBackendKindFromName(const std::string &Name) {
  if (Name == "arena")
    return PageBackendKind::Arena;
  if (Name == "buddy")
    return PageBackendKind::Buddy;
  return std::nullopt;
}

double ddm::percentOver(double Value, double Baseline) {
  return Baseline != 0.0 ? (Value / Baseline - 1.0) * 100.0 : 0.0;
}
