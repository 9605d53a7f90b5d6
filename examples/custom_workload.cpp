//===- examples/custom_workload.cpp - Bring your own workload -------------===//
///
/// \file
/// Shows how a downstream user models their *own* application with the
/// library: build a WorkloadSpec from measured statistics (calls per
/// transaction, mean allocation size, free fraction, lifetime), then sweep
/// every allocator in the zoo across core counts to pick the right memory
/// manager for their service.
///
///   ./build/examples/custom_workload --mallocs 80000 --mean-size 96 --free-fraction 0.8
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "experiments/Measure.h"
#include "support/ArgParse.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  uint64_t Mallocs = 80000;
  double MeanSize = 96.0;
  double FreeFraction = 0.80;
  double Lifetime = 24.0;
  double WorkPerMalloc = 400.0;
  uint64_t StateMb = 4;
  std::string PlatformName = "xeon";
  double Scale = 0.5;
  uint64_t Seed = 1;
  ArgParser Parser("Models a custom transaction workload and compares all "
                   "allocators on it across core counts.");
  Parser.addFlag("mallocs", &Mallocs, "allocations per transaction");
  Parser.addFlag("mean-size", &MeanSize, "mean allocation size in bytes");
  Parser.addFlag("free-fraction", &FreeFraction,
                 "fraction of objects freed per-object (0-1)");
  Parser.addFlag("lifetime", &Lifetime, "mean object lifetime in steps");
  Parser.addFlag("work", &WorkPerMalloc, "app instructions per allocation");
  Parser.addFlag("state-mb", &StateMb, "background working set (MiB)");
  Parser.addFlag("platform", &PlatformName, "xeon or niagara");
  Parser.addFlag("scale", &Scale, "workload scale");
  Parser.addFlag("seed", &Seed, "random seed");
  if (!Parser.parse(Argc, Argv))
    return 1;
  checkScaleFlag(Scale);

  if (FreeFraction < 0.0 || FreeFraction > 1.0) {
    std::fprintf(stderr, "free-fraction must be in [0, 1]\n");
    return 1;
  }

  WorkloadSpec W;
  W.Name = "custom";
  W.MallocCalls = Mallocs;
  W.FreeCalls = static_cast<uint64_t>(Mallocs * FreeFraction);
  W.ReallocCalls = Mallocs / 40;
  W.MeanAllocBytes = MeanSize;
  W.MeanLifetimeSteps = Lifetime;
  W.WorkInstrPerMalloc = WorkPerMalloc;
  W.AppStateBytes = StateMb * 1024 * 1024;

  Platform P = PlatformName == "niagara" ? niagaraLike() : xeonLike();

  SimulationOptions Options;
  Options.Scale = Scale;
  Options.WarmupTx = 1;
  Options.MeasureTx = 3;
  Options.Seed = Seed;

  std::printf("custom workload: %llu mallocs/tx, %.0f B mean, %.0f%% freed "
              "per-object, on the %s-like platform\n\n",
              static_cast<unsigned long long>(Mallocs), MeanSize,
              100.0 * FreeFraction, P.Name.c_str());

  Table Out({"allocator", "1 core (tx/s)", "8 cores (tx/s)", "speedup",
             "8-core rank"});
  struct Entry {
    AllocatorKind Kind;
    double One, Eight;
  };
  std::vector<Entry> Entries;
  for (AllocatorKind Kind : allAllocatorKinds()) {
    // Allocators without bulk free run in Ruby mode (per-object sweep).
    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = createAllocator(Kind)->supportsBulkFree();
    SimPoint One = simulateRuntime(W, Config, P, 1, Options);
    SimPoint Eight = simulateRuntime(W, Config, P, P.Cores, Options);
    Entries.push_back(
        {Kind, One.Perf.TxPerSec * Scale, Eight.Perf.TxPerSec * Scale});
  }
  std::vector<size_t> Ranks(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    for (size_t J = 0; J < Entries.size(); ++J)
      if (Entries[J].Eight > Entries[I].Eight)
        ++Ranks[I];
  for (size_t I = 0; I < Entries.size(); ++I) {
    char Speedup[32], Rank[16];
    std::snprintf(Speedup, sizeof(Speedup), "%.1fx",
                  Entries[I].Eight / Entries[I].One);
    std::snprintf(Rank, sizeof(Rank), "#%zu", Ranks[I] + 1);
    Out.row()
        .cell(allocatorKindName(Entries[I].Kind))
        .cell(Entries[I].One, 1)
        .cell(Entries[I].Eight, 1)
        .cell(Speedup)
        .cell(Rank);
  }
  std::fputs(Out.renderAscii().c_str(), stdout);
  return 0;
}
