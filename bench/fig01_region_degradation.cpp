//===- bench/fig01_region_degradation.cpp - Reproduce Figure 1 ------------===//
///
/// \file
/// Figure 1 of the paper: normalized CPU time per transaction of the
/// region-based allocator versus the default allocator of the PHP runtime
/// for MediaWiki on 8 Xeon cores, split into memory management and the
/// rest of the program.
///
/// Paper shape: the region allocator nearly eliminates the memory
/// management share but inflates the rest of the program so much that the
/// total CPU time per transaction rises above the default allocator's.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Json.h"
#include "support/Table.h"

#include <cstdio>
#include <functional>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.WarmupTx = 1;
  Cli.MeasureTx = 3;
  std::string WorkloadName = "mediawiki-read";
  ArgParser Parser("Reproduces Figure 1: normalized CPU time per transaction "
                   "of the region allocator vs the PHP default allocator on 8 "
                   "Xeon-like cores (MediaWiki).");
  Cli.addSimFlags(Parser);
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Cli.addOutputFlags(Parser, /*WithCsv=*/true);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region};
  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : Kinds)
    Tasks.push_back(
        [W, Kind, P, Options] { return simulate(*W, Kind, P, P.Cores, Options); });

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);
  const SimPoint &Default = Points[0];
  const SimPoint &Region = Points[1];

  double Base = Default.Perf.CyclesPerTx;

  // The text names the region allocator "region-based", the JSON "region".
  Table Out({"allocator", "", "total (norm.)", "memory mgmt", "others"},
            {"", "allocator", "total_norm", "mm_norm", "others_norm"});
  Out.row()
      .cell("default")
      .cell("default")
      .cell(1.0, 3)
      .cell(Default.Perf.MmCyclesPerTx / Base, 3)
      .cell(Default.Perf.AppCyclesPerTx / Base, 3);
  Out.row()
      .cell("region-based")
      .cell("region")
      .cell(Region.Perf.CyclesPerTx / Base, 3)
      .cell(Region.Perf.MmCyclesPerTx / Base, 3)
      .cell(Region.Perf.AppCyclesPerTx / Base, 3);

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "fig01_region_degradation")
        .field("workload", W->Name)
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("rows");
    Out.writeJson(J);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Figure 1: normalized CPU time per transaction, %s on 8 "
                "Xeon-like cores\n\n",
                W->Name.c_str());
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\nPaper shape: region cuts memory management to almost "
                "nothing but the rest of the program slows down enough that "
                "its total exceeds 1.0 (throughput drops).\n");
  }

  // Exit nonzero if the headline inversion is absent so CI-style runs
  // catch regressions of the reproduction.
  bool RegionSlower = Region.Perf.CyclesPerTx > Base;
  bool MmReduced = Region.Perf.MmCyclesPerTx < 0.4 * Default.Perf.MmCyclesPerTx;
  if (!RegionSlower || !MmReduced) {
    if (!Cli.Json)
      std::printf("\nWARNING: expected shape not reproduced!\n");
    return 2;
  }
  return 0;
}
