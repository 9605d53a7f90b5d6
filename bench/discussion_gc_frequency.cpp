//===- bench/discussion_gc_frequency.cpp - Section 5 discussion -----------===//
///
/// \file
/// The paper's Section 5: language runtimes with copying collectors
/// allocate like a region allocator (bump pointer) and "cannot reuse the
/// memory locations used by already-dead objects" until a collection
/// runs, so they inherit the region allocator's multicore bus problem;
/// techniques that reclaim short-lived objects quickly - MicroPhase [24]
/// invokes GC aggressively *before* the heap is full - improve memory
/// locality on multicore processors.
///
/// This bench models GC frequency directly: a region-style heap collected
/// (freeAll) every N transactions. N = 1 is an aggressive MicroPhase-style
/// collector whose nursery stays cache-hot across requests; larger N lets
/// garbage pile up over N transactions of allocation before any address
/// is reused, cooling every line.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.WarmupTx = 4;
  Cli.MeasureTx = 24;
  std::string WorkloadName = "specweb";
  bool Csv = false;
  ArgParser Parser(
      "Section 5 discussion: throughput of a region-style (copying-GC-like) "
      "heap as a function of how often it is collected.");
  Cli.addSimFlags(Parser);
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }

  Platform P = xeonLike();
  Table Out({"GC period (tx)", "GC heap (bytes/collection)", "tx/s (8 cores)",
             "vs period 1", "bus MB/tx"});
  double Baseline = 0;
  for (uint64_t Period : {1, 2, 4, 8, 16}) {
    RuntimeConfig Config;
    Config.Kind = AllocatorKind::Region;
    Config.UseBulkFree = true;
    Config.BulkFreePeriodTx = Period;

    SimulationOptions Options = Cli.simOptions();
    Options.WarmupTx = std::min<uint64_t>(Cli.WarmupTx * Period, 64);

    SimPoint Point = simulateRuntime(*W, Config, P, P.Cores, Options);
    double Tps = Point.Perf.TxPerSec * Cli.Scale;
    if (Period == 1)
      Baseline = Tps;
    Out.row()
        .cell(Period)
        .cell(formatBytes(
            static_cast<uint64_t>(Point.MeanConsumptionBytes)))
        .cell(Tps, 1)
        .percentCell(percentOver(Tps, Baseline))
        .cell(Point.Perf.BusBytesPerTx / 1e6, 2);
  }

  std::printf("Section 5: collection frequency of a region-style (GC-like) "
              "heap, %s on 8 Xeon-like cores\n\n",
              W->Name.c_str());
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  std::printf("\nCollecting every transaction (MicroPhase-style) keeps the "
              "reused nursery hot; letting garbage pile up cools every "
              "line and adds bus traffic - the paper's Section 5 claim.\n");
  return 0;
}
