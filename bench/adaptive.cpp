//===- bench/adaptive.cpp - Adaptive placement vs the static zoo ----------===//
///
/// \file
/// The payoff bench of the DAMON-style sampling story: a phase-shifting
/// workload (a transaction-scoped PHP-like phase followed by a churny
/// phase that frees almost everything it allocates) runs through one
/// long-lived runtime process, and the adaptive allocator — which watches
/// its own stream and re-places itself at safe points — is compared
/// against every static strategy it can switch between.
///
/// Three gates (--check):
///  - placement: adaptive cycles/tx within 2% of the best static member
///    (it should win outright when the phases disagree about the best
///    allocator, since no static member is right in both);
///  - overhead: turning the access sampler on costs <= 5% cycles/tx;
///  - give-back: with a buddy backend, sampler-gated adviseOut() drops a
///    measurable amount of modeled RSS.
///
/// Output goes to BENCH_adaptive.json in CI.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

using namespace ddm;

namespace {

/// Phase A: transaction-scoped allocation, PHP-style — objects live to the
/// transaction end and per-object frees are rare, so bulk reclamation
/// (region) wins.
WorkloadSpec phaseTxScoped() {
  WorkloadSpec W;
  W.Name = "phase-txscoped";
  W.MallocCalls = 14000;
  W.FreeCalls = 1100; // freeRatio ~0.08: transaction-scoped.
  W.ReallocCalls = 140;
  W.MeanAllocBytes = 72.0;
  W.SizeSigma = 1.0;
  W.PointMassFraction = 0.6;
  W.MeanLifetimeSteps = 40.0;
  W.WorkInstrPerMalloc = 150.0;
  W.ObjectTouchesPerStep = 2.0;
  W.AppStateBytes = 2ull * 1024 * 1024;
  W.AppCodeFootprintBytes = 64.0 * 1024;
  return W;
}

/// Phase B: churn — nearly every object is freed young, objects are
/// small, and the per-transaction allocation volume is large, so reuse
/// (slab) keeps the working set warm while a bump-pointer region streams
/// through cold memory every transaction.
WorkloadSpec phaseChurn() {
  WorkloadSpec W;
  W.Name = "phase-churn";
  W.MallocCalls = 40000;
  W.FreeCalls = 39000; // freeRatio ~0.98: reuse matters.
  W.ReallocCalls = 60;
  W.MeanAllocBytes = 128.0;
  W.SizeSigma = 0.5;
  W.PointMassFraction = 0.95;
  W.MeanLifetimeSteps = 4.0;
  W.WorkInstrPerMalloc = 60.0;
  W.ObjectTouchesPerStep = 3.0;
  W.AppStateBytes = 2ull * 1024 * 1024;
  W.AppCodeFootprintBytes = 64.0 * 1024;
  return W;
}

SimPoint runPoint(const std::vector<WorkloadSpec> &Phases, AllocatorKind Kind,
                  const Platform &P, const SimulationOptions &Options) {
  RuntimeConfig Config;
  Config.Kind = Kind;
  Config.UseBulkFree = allocatorSupportsBulkFree(Kind);
  // Inner heaps deliberately smaller than the buddy reservation (and the
  // region chunk larger than the others): a strategy switch away from the
  // fat region phase releases spans the sampler-gated give-back can then
  // actually drop. Applied to every run so the comparison stays fair.
  Config.AllocOptions.RegionChunkBytes = 128ull * 1024 * 1024;
  Config.AllocOptions.HeapReserveBytes = 48ull * 1024 * 1024;
  return simulatePhases(Phases, Config, P, 1, Options);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.5;
  Cli.WarmupTx = 2;
  Cli.MeasureTx = 8; // Per phase; enough windows for hysteresis to act.
  bool Check = false;
  ArgParser Parser(
      "Adaptive placement bench: a phase-shifting workload through the "
      "adaptive allocator versus every static strategy it can pick, plus "
      "the sampling-overhead and cold-give-back gates.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  Parser.addFlag("check", &Check,
                 "exit nonzero unless adaptive is within 2% of the best "
                 "static member, sampling overhead is <= 5%, and the "
                 "buddy-backed run gives cold pages back");
  if (!Parser.parse(Argc, Argv))
    return 1;

  Platform P = xeonLike();
  const std::vector<WorkloadSpec> Phases = {phaseTxScoped(), phaseChurn()};
  // The static members the adaptive policy chooses between.
  const AllocatorKind StaticKinds[] = {
      AllocatorKind::Region, AllocatorKind::Obstack, AllocatorKind::Slab,
      AllocatorKind::Default};

  SimulationOptions Base = Cli.simOptions();

  // The whole grid: the static members, adaptive, adaptive+sampling, and
  // adaptive over a buddy backend with sampler-gated give-back.
  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : StaticKinds)
    Tasks.push_back(
        [&Phases, Kind, P, Base] { return runPoint(Phases, Kind, P, Base); });
  Tasks.push_back([&Phases, P, Base] {
    return runPoint(Phases, AllocatorKind::Adaptive, P, Base);
  });
  Tasks.push_back([&Phases, P, Base] {
    SimulationOptions Options = Base;
    Options.Sampling = true;
    return runPoint(Phases, AllocatorKind::Adaptive, P, Options);
  });
  Tasks.push_back([&Phases, P, Base] {
    SimulationOptions Options = Base;
    Options.Sampling = true;
    Options.ColdGiveBack = true;
    Options.Backend = PageBackendKind::Buddy;
    Options.BackendReserveBytes = 256ull * 1024 * 1024;
    return runPoint(Phases, AllocatorKind::Adaptive, P, Options);
  });

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  const size_t NumStatic = std::size(StaticKinds);
  const SimPoint &Adaptive = Points[NumStatic];
  const SimPoint &Sampled = Points[NumStatic + 1];
  const SimPoint &GiveBack = Points[NumStatic + 2];

  double BestStaticCycles = Points[0].Perf.CyclesPerTx;
  const char *BestStaticName = allocatorKindName(StaticKinds[0]);
  for (size_t I = 1; I < NumStatic; ++I)
    if (Points[I].Perf.CyclesPerTx < BestStaticCycles) {
      BestStaticCycles = Points[I].Perf.CyclesPerTx;
      BestStaticName = allocatorKindName(StaticKinds[I]);
    }

  double OverheadPct =
      percentOver(Sampled.Perf.CyclesPerTx, Adaptive.Perf.CyclesPerTx);
  uint64_t RssBefore = GiveBack.RssBytes + GiveBack.AdvisedOutBytes;

  bool PlacementOk =
      Adaptive.Perf.CyclesPerTx <= BestStaticCycles * 1.02;
  bool OverheadOk = OverheadPct <= 5.0;
  bool GiveBackOk = GiveBack.AdvisedOutBytes > 0;

  Table Out({"allocator", "cycles/tx", "vs best static", "switches",
             "final strategy"});
  JsonWriter J;
  if (Cli.Json) {
    J.beginObject()
        .field("bench", "adaptive")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("rows")
        .beginArray();
  }
  auto emitRow = [&](const char *Name, const SimPoint &Pt) {
    double VsBest = percentOver(Pt.Perf.CyclesPerTx, BestStaticCycles);
    if (Cli.Json)
      J.beginObject()
          .field("allocator", Name)
          .field("cycles_per_tx", Pt.Perf.CyclesPerTx)
          .field("vs_best_static_pct", VsBest)
          .field("strategy_switches", Pt.StrategySwitches)
          .field("final_strategy",
                 Pt.FinalStrategy.empty() ? "-" : Pt.FinalStrategy.c_str())
          .endObject();
    else
      Out.row()
          .cell(Name)
          .cell(Pt.Perf.CyclesPerTx, 0)
          .cell(VsBest, 2)
          .cell(Pt.StrategySwitches)
          .cell(Pt.FinalStrategy.empty() ? "-" : Pt.FinalStrategy.c_str());
  };
  for (size_t I = 0; I < NumStatic; ++I)
    emitRow(allocatorKindName(StaticKinds[I]), Points[I]);
  emitRow("adaptive", Adaptive);
  emitRow("adaptive+sampler", Sampled);
  emitRow("adaptive+giveback", GiveBack);

  if (Cli.Json) {
    J.endArray()
        .field("best_static", BestStaticName)
        .field("best_static_cycles_per_tx", BestStaticCycles)
        .field("sampling_overhead_pct", OverheadPct)
        .field("rss_before_giveback_bytes", RssBefore)
        .field("rss_bytes", GiveBack.RssBytes)
        .field("advised_out_bytes", GiveBack.AdvisedOutBytes)
        .field("placement_ok", PlacementOk)
        .field("overhead_ok", OverheadOk)
        .field("giveback_ok", GiveBackOk)
        .endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Adaptive placement on a phase-shifting workload "
                "(%s -> %s, %u tx per phase)\n\n",
                Phases[0].Name.c_str(), Phases[1].Name.c_str(),
                Cli.MeasureTx);
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\nbest static: %s; sampling overhead %.2f%%; give-back "
                "dropped %s of %s modeled RSS\n",
                BestStaticName, OverheadPct,
                formatBytes(GiveBack.AdvisedOutBytes).c_str(),
                formatBytes(RssBefore).c_str());
  }

  if (Check) {
    if (!PlacementOk)
      std::fprintf(stderr,
                   "check failed: adaptive %.0f cycles/tx vs best static "
                   "(%s) %.0f (+%.2f%%, allowed 2%%)\n",
                   Adaptive.Perf.CyclesPerTx, BestStaticName,
                   BestStaticCycles,
                   percentOver(Adaptive.Perf.CyclesPerTx, BestStaticCycles));
    if (!OverheadOk)
      std::fprintf(stderr,
                   "check failed: sampling overhead %.2f%% exceeds 5%%\n",
                   OverheadPct);
    if (!GiveBackOk)
      std::fprintf(stderr,
                   "check failed: cold give-back dropped no resident pages\n");
    if (!PlacementOk || !OverheadOk || !GiveBackOk)
      return 1;
  }
  return 0;
}
