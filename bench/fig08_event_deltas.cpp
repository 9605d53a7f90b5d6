//===- bench/fig08_event_deltas.cpp - Reproduce Figure 8 ------------------===//
///
/// \file
/// Figure 8 of the paper: change (in percent, relative to the default
/// allocator) in the numbers of instructions, L1I misses, L1D misses,
/// D-TLB misses, L2 misses, and bus transactions per transaction, for
/// DDmalloc and the region allocator, on 8 cores of both platforms.
///
/// Paper shape: both DDmalloc and region reduce instructions and L1I/L1D
/// misses (smaller allocator code, no per-object headers); the region
/// allocator blows up L2 misses and - especially on Xeon, where the
/// hardware prefetcher amplifies its streaming - bus transactions, while
/// DDmalloc reduces both.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

namespace {

double busTransactions(const SimPoint &Point) {
  DomainEvents T = Point.Events.total();
  return static_cast<double>(T.L2Misses) + static_cast<double>(T.Writebacks) +
         static_cast<double>(T.PrefetchesIssued);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchCli Cli;
  bool Csv = false;
  ArgParser Parser(
      "Reproduces Figure 8: % change vs the default allocator in per-"
      "transaction instructions, cache/TLB misses, and bus transactions.");
  Cli.addSimFlags(Parser);
  Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  std::printf("Figure 8: changes in event counts per transaction vs the "
              "default allocator (8 cores)\n\n");

  for (const Platform &P : {xeonLike(), niagaraLike()}) {
    Table Out({"workload", "allocator", "instructions", "L1I miss",
               "L1D miss", "D-TLB miss", "L2 miss", "bus transactions"});
    for (const WorkloadSpec &W : phpWorkloads()) {
      SimPoint Default = simulate(W, AllocatorKind::Default, P, P.Cores, Options);
      for (AllocatorKind Kind :
           {AllocatorKind::DDmalloc, AllocatorKind::Region}) {
        SimPoint Point = simulate(W, Kind, P, P.Cores, Options);
        DomainEvents A = Point.Events.total();
        DomainEvents B = Default.Events.total();
        Out.row()
            .cell(W.Name)
            .cell(allocatorKindName(Kind))
            .percentCell(percentOver(Point.Perf.InstructionsPerTx,
                                     Default.Perf.InstructionsPerTx))
            .percentCell(percentOver(Point.Perf.L1IMissesPerTx,
                                     Default.Perf.L1IMissesPerTx))
            .percentCell(percentOver(static_cast<double>(A.L1DMisses),
                                     static_cast<double>(B.L1DMisses)))
            .percentCell(percentOver(static_cast<double>(A.TlbMisses),
                                     static_cast<double>(B.TlbMisses)))
            .percentCell(percentOver(static_cast<double>(A.L2Misses),
                                     static_cast<double>(B.L2Misses)))
            .percentCell(percentOver(busTransactions(Point),
                                     busTransactions(Default)));
      }
    }
    std::printf("--- platform: %s-like, %u cores ---\n", P.Name.c_str(),
                P.Cores);
    std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\n");
  }
  std::printf(
      "Paper: DDmalloc and region both cut instructions and L1I misses;\n"
      "region inflates L2 misses and (via the prefetcher on Xeon) bus\n"
      "transactions, DDmalloc reduces them.\n");
  return 0;
}
