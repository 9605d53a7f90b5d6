//===- bench/table4_speedups.cpp - Reproduce Table 4 ----------------------===//
///
/// \file
/// Table 4 of the paper: for every workload, platform and allocator, the
/// throughput with 1 core, the throughput with 8 cores, the relative
/// throughput over the default allocator (in parentheses in the paper),
/// and the 8-core speedup.
///
/// Paper shape: both region and DDmalloc beat the default on one core on
/// both platforms for every workload; at 8 cores the region allocator's
/// speedup collapses on Xeon (4.3x-5.9x vs 6.2x-6.9x for the default)
/// while DDmalloc matches the default's scaling from a faster base.
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
  ArgParser Parser("Reproduces Table 4: 1-core and 8-core throughput and the "
                   "speedup for every workload, allocator, and platform.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  const std::vector<Platform> Platforms = {xeonLike(), niagaraLike()};
  const std::vector<WorkloadSpec> Workloads = phpWorkloads();
  const std::vector<AllocatorKind> Kinds = phpStudyAllocatorKinds();

  // Grid order: platform x workload x allocator x {1 core, 8 cores}.
  std::vector<std::function<SimPoint()>> Tasks;
  for (const Platform &P : Platforms)
    for (const WorkloadSpec &W : Workloads)
      for (AllocatorKind Kind : Kinds) {
        Tasks.push_back(
            [W, Kind, P, Options] { return simulate(W, Kind, P, 1, Options); });
        Tasks.push_back([W, Kind, P, Options] {
          return simulate(W, Kind, P, P.Cores, Options);
        });
      }

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  if (!Cli.Json)
    std::printf("Table 4: speedups with 8 cores for each workload\n\n");
  JsonWriter J;
  if (Cli.Json)
    J.beginObject()
        .field("bench", "table4_speedups")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("platforms")
        .beginArray();
  size_t Idx = 0;
  for (const Platform &P : Platforms) {
    // The text prints the raw ratio as "3.9x"; the JSON guards a zero
    // 1-core throughput.
    Table Out({"workload", "allocator", "1 core (tx/s)", "vs default",
               "8 cores (tx/s)", "vs default", "speedup", ""},
              {"workload", "allocator", "one_core_tps",
               "one_core_vs_default_pct", "eight_core_tps",
               "eight_core_vs_default_pct", "", "speedup"});
    for (const WorkloadSpec &W : Workloads) {
      double BaseOne = 0, BaseEight = 0;
      for (AllocatorKind Kind : Kinds) {
        const SimPoint &One = Points[Idx++];
        const SimPoint &Eight = Points[Idx++];
        double TpsOne = One.Perf.TxPerSec * Cli.Scale;
        double TpsEight = Eight.Perf.TxPerSec * Cli.Scale;
        if (Kind == AllocatorKind::Default) {
          BaseOne = TpsOne;
          BaseEight = TpsEight;
        }
        char Speedup[32];
        std::snprintf(Speedup, sizeof(Speedup), "%.1fx", TpsEight / TpsOne);
        Out.row()
            .cell(W.Name)
            .cell(allocatorKindName(Kind))
            .cell(TpsOne, 1)
            .percentCell(percentOver(TpsOne, BaseOne))
            .cell(TpsEight, 1)
            .percentCell(percentOver(TpsEight, BaseEight))
            .cell(Speedup)
            .cell(TpsOne > 0 ? TpsEight / TpsOne : 0.0);
      }
    }
    if (Cli.Json) {
      J.beginObject().field("platform", P.Name).key("rows");
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
    std::printf("Paper: on 1 core region and DDmalloc beat the default "
                "everywhere; at 8 cores region's speedup collapses on Xeon "
                "while DDmalloc keeps pace with the default allocator.\n");
  }
  return 0;
}
