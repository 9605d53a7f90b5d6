//===- bench/ablation_largepage.cpp - Section 3.3 opt. 2 ------------------===//
///
/// \file
/// The paper's large-page optimization (Section 3.3, optimization 2, and
/// the Section 4.3 note): backing the heap with large pages cuts D-TLB
/// misses by more than 60% versus the default allocator and raises
/// DDmalloc's improvement on Xeon from +11.1% to +11.7% (up to +9.0%
/// average); on Niagara, whose software TLB refill is expensive, large
/// pages are essential and were enabled throughout.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  std::string WorkloadName = "mediawiki-read";
  bool Csv = false;
  ArgParser Parser("Ablation: the effect of backing the heap with large "
                   "pages (paper Section 3.3, optimization 2).");
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

  std::printf("Ablation: large pages for the heap (%s, 8 cores)\n\n",
              W->Name.c_str());
  for (const Platform &P : {xeonLike(), niagaraLike()}) {
    Table Out({"allocator", "pages", "tx/s", "vs default 4K", "D-TLB miss/tx"});
    SimulationOptions Options = Cli.simOptions();

    Options.LargePages = false;
    SimPoint DefaultSmall =
        simulate(*W, AllocatorKind::Default, P, P.Cores, Options);
    SimPoint DDmSmall = simulate(*W, AllocatorKind::DDmalloc, P, P.Cores, Options);
    Options.LargePages = true;
    SimPoint DDmLarge = simulate(*W, AllocatorKind::DDmalloc, P, P.Cores, Options);

    double Base = DefaultSmall.Perf.TxPerSec;
    auto Row = [&](const char *Name, const char *Pages, const SimPoint &Pt) {
      Out.row()
          .cell(Name)
          .cell(Pages)
          .cell(Pt.Perf.TxPerSec * Cli.Scale, 1)
          .percentCell(percentOver(Pt.Perf.TxPerSec, Base))
          .cell(static_cast<uint64_t>(Pt.Events.total().TlbMisses));
    };
    Row("default", "4K", DefaultSmall);
    Row("ddmalloc", "4K", DDmSmall);
    Row("ddmalloc", "large", DDmLarge);

    std::printf("--- platform: %s-like ---\n", P.Name.c_str());
    std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    double TlbCut = 1.0 - static_cast<double>(DDmLarge.Events.total().TlbMisses) /
                              static_cast<double>(
                                  DefaultSmall.Events.total().TlbMisses);
    std::printf("D-TLB miss reduction vs default: %.0f%% (paper: >60%% on "
                "Xeon)\n\n",
                100.0 * TlbCut);
  }
  return 0;
}
