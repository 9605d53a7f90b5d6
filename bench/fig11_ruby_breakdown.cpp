//===- bench/fig11_ruby_breakdown.cpp - Reproduce Figure 11 ---------------===//
///
/// \file
/// Figure 11 of the paper: breakdown of CPU cycles per transaction for the
/// Ruby on Rails application with the four allocators, normalized to
/// glibc's total.
///
/// Paper shape: DDmalloc spends the least time in memory operations of all
/// tested allocators by avoiding defragmentation in malloc and free; the
/// defragmentation cost exceeds its benefit even in Hoard and TCmalloc.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.12;
  Cli.WarmupTx = 30;
  Cli.MeasureTx = 80;
  uint64_t RestartPeriod = 60;
  bool Csv = false;
  ArgParser Parser("Reproduces Figure 11: CPU-cycle breakdown per transaction "
                   "for Ruby on Rails with various allocators.");
  Cli.addSimFlags(Parser);
  Parser.addFlag("restart-period", &RestartPeriod,
                 "transactions between process restarts");
  Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload("rails");

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  Table Out({"allocator", "total %", "memory ops %", "others %"});
  double Base = 0, BestMm = 1e18;
  std::string BestMmName;
  for (AllocatorKind Kind : rubyStudyAllocatorKinds()) {
    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = false;
    Config.RestartPeriodTx = RestartPeriod;
    // A restart costs a fixed interpreter boot; scale it like the
    // transactions so the amortized share matches the full-size workload.
    Config.RestartCostInstructions =
        static_cast<uint64_t>(Config.RestartCostInstructions * Cli.Scale);
    SimPoint Point = simulateRuntime(*W, Config, P, P.Cores, Options);
    if (Kind == AllocatorKind::Glibc)
      Base = Point.Perf.CyclesPerTx;
    if (Point.Perf.MmCyclesPerTx < BestMm) {
      BestMm = Point.Perf.MmCyclesPerTx;
      BestMmName = allocatorKindName(Kind);
    }
    Out.row()
        .cell(allocatorKindName(Kind))
        .cell(100.0 * Point.Perf.CyclesPerTx / Base, 1)
        .cell(100.0 * Point.Perf.MmCyclesPerTx / Base, 1)
        .cell(100.0 * Point.Perf.AppCyclesPerTx / Base, 1);
  }

  std::printf("Figure 11: CPU cycles per transaction for Ruby on Rails on 8 "
              "Xeon-like cores (glibc total = 100%%)\n\n");
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  std::printf("\nleast memory-operation time: %s (paper: DDmalloc)\n",
              BestMmName.c_str());
  return 0;
}
