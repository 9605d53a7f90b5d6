//===- bench/fig07_core_scaling.cpp - Reproduce Figure 7 ------------------===//
///
/// \file
/// Figure 7 of the paper: throughput of MediaWiki (read-only) with
/// increasing numbers of cores on both platforms, for the three
/// allocators.
///
/// Paper shape: the region allocator ties or beats DDmalloc up to 2 cores
/// (Xeon) / 4 cores (Niagara), then falls behind as the bus saturates;
/// DDmalloc scales like the default allocator but from a faster base and
/// is best at 8 cores on both platforms.
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
  Cli.MeasureTx = 2;
  std::string WorkloadName = "mediawiki-read";
  ArgParser Parser("Reproduces Figure 7: throughput with increasing core "
                   "counts on the Xeon-like and Niagara-like platforms.");
  Cli.addSimFlags(Parser);
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }

  SimulationOptions Options = Cli.simOptions();

  const std::vector<Platform> Platforms = {xeonLike(), niagaraLike()};
  const unsigned CoreCounts[] = {1, 2, 4, 6, 8};
  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region,
                                 AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (const Platform &P : Platforms)
    for (unsigned Cores : CoreCounts)
      for (AllocatorKind Kind : Kinds)
        Tasks.push_back([W, Kind, P, Cores, Options] {
          return simulate(*W, Kind, P, Cores, Options);
        });

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  if (!Cli.Json)
    std::printf("Figure 7: %s throughput (tx/s) vs. core count\n\n",
                W->Name.c_str());
  JsonWriter J;
  if (Cli.Json)
    J.beginObject()
        .field("bench", "fig07_core_scaling")
        .field("workload", W->Name)
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("platforms")
        .beginArray();
  size_t Idx = 0;
  for (const Platform &P : Platforms) {
    Table Out({"cores", "default", "region-based", "our DDmalloc"},
              {"cores", "default_tps", "region_tps", "ddmalloc_tps"});
    for (unsigned Cores : CoreCounts) {
      const SimPoint &Default = Points[Idx++];
      const SimPoint &Region = Points[Idx++];
      const SimPoint &DDm = Points[Idx++];
      Out.row()
          .cell(Cores)
          .cell(Default.Perf.TxPerSec * Cli.Scale, 1)
          .cell(Region.Perf.TxPerSec * Cli.Scale, 1)
          .cell(DDm.Perf.TxPerSec * Cli.Scale, 1);
    }
    if (Cli.Json) {
      J.beginObject().field("platform", P.Name).key("points");
      Out.writeJson(J);
      J.endObject();
    } else {
      std::printf("--- platform: %s-like ---\n", P.Name.c_str());
      std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(),
                 stdout);
      std::printf("\n");
    }
  }
  if (Cli.Json) {
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Paper: region competitive at low core counts, then falls "
                "off; DDmalloc best at 8 cores on both platforms.\n");
  }
  return 0;
}
