//===- bench/fig06_cpu_breakdown.cpp - Reproduce Figure 6 -----------------===//
///
/// \file
/// Figure 6 of the paper: breakdown of CPU time per transaction into
/// memory management and everything else, for all workloads and the three
/// allocators, on 8 Xeon-like cores. Values are normalized to the default
/// allocator's total (= 100%).
///
/// Paper shape: the region allocator reduces the memory-management time by
/// 85% on average but the other parts slow down; DDmalloc reduces it by
/// 56% (up to 65%) with the rest unchanged or slightly improved.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  bool Csv = false;
  ArgParser Parser("Reproduces Figure 6: CPU time breakdown per transaction "
                   "(memory management vs others) on 8 Xeon-like cores.");
  Cli.addSimFlags(Parser);
  Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  Table Out({"workload", "allocator", "total %", "memory mgmt %", "others %"});
  RunningStat RegionMmReduction, DDmallocMmReduction;

  for (const WorkloadSpec &W : phpWorkloads()) {
    SimPoint Points[3] = {
        simulate(W, AllocatorKind::Default, P, P.Cores, Options),
        simulate(W, AllocatorKind::Region, P, P.Cores, Options),
        simulate(W, AllocatorKind::DDmalloc, P, P.Cores, Options)};
    const char *Names[3] = {"default", "region-based", "our DDmalloc"};
    double Base = Points[0].Perf.CyclesPerTx;
    for (int I = 0; I < 3; ++I) {
      Out.row()
          .cell(W.Name)
          .cell(Names[I])
          .cell(100.0 * Points[I].Perf.CyclesPerTx / Base, 1)
          .cell(100.0 * Points[I].Perf.MmCyclesPerTx / Base, 1)
          .cell(100.0 * Points[I].Perf.AppCyclesPerTx / Base, 1);
    }
    double MmBase = Points[0].Perf.MmCyclesPerTx;
    RegionMmReduction.add(1.0 - Points[1].Perf.MmCyclesPerTx / MmBase);
    DDmallocMmReduction.add(1.0 - Points[2].Perf.MmCyclesPerTx / MmBase);
  }

  std::printf("Figure 6: CPU time per transaction on 8 Xeon-like cores "
              "(default allocator total = 100%%)\n\n");
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  std::printf("\nmemory-management time reduction vs default: region %.0f%% "
              "(paper: 85%%), DDmalloc %.0f%% (paper: 56%%, up to 65%%)\n",
              100.0 * RegionMmReduction.mean(),
              100.0 * DDmallocMmReduction.mean());
  return 0;
}
