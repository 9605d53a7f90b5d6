//===- bench/fig05_relative_throughput.cpp - Reproduce Figure 5 -----------===//
///
/// \file
/// Figure 5 of the paper: relative throughput of the region-based
/// allocator and DDmalloc over the default allocator of the PHP runtime,
/// for all seven workloads, on all 8 cores of the Xeon-like and
/// Niagara-like platforms.
///
/// Paper shape to reproduce: DDmalloc wins everywhere (up to +11.1% Xeon /
/// +11.4% Niagara); the region allocator loses on most Xeon workloads (as
/// low as -27.2%) and is roughly a wash on Niagara.
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
  Cli.Scale = 0.5;
  Cli.WarmupTx = 2;
  Cli.MeasureTx = 3;
  bool Verbose = false;
  ArgParser Parser(
      "Reproduces Figure 5: relative throughput over the default allocator "
      "on 8 cores of the Xeon-like and Niagara-like platforms.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  Parser.addFlag("verbose", &Verbose, "print model internals per point");
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  // Enumerate the grid once so the points can run on any number of workers,
  // then read the results back in the same order: the report below is
  // byte-identical for every --jobs value.
  const std::vector<Platform> Platforms = {xeonLike(), niagaraLike()};
  const std::vector<WorkloadSpec> Workloads = phpWorkloads();
  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region,
                                 AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (const Platform &P : Platforms)
    for (const WorkloadSpec &W : Workloads)
      for (AllocatorKind Kind : Kinds)
        Tasks.push_back(
            [W, Kind, P, Options] { return simulate(W, Kind, P, P.Cores, Options); });

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  if (!Cli.Json)
    std::printf("Figure 5: relative throughput over the default allocator of "
                "the PHP runtime (8 cores)\n\n");
  JsonWriter J;
  if (Cli.Json)
    J.beginObject()
        .field("bench", "fig05_relative_throughput")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("platforms")
        .beginArray();

  size_t Idx = 0;
  for (const Platform &P : Platforms) {
    Table Out({"workload", "default (tx/s)", "region", "ddmalloc"},
              {"workload", "default_tps", "region_vs_default_pct",
               "ddmalloc_vs_default_pct"});
    for (const WorkloadSpec &W : Workloads) {
      const SimPoint &Default = Points[Idx++];
      const SimPoint &Region = Points[Idx++];
      const SimPoint &DDm = Points[Idx++];
      Out.row()
          .cell(W.Name)
          .cell(Default.Perf.TxPerSec * Cli.Scale, 1)
          .percentCell(
              percentOver(Region.Perf.TxPerSec, Default.Perf.TxPerSec))
          .percentCell(
              percentOver(DDm.Perf.TxPerSec, Default.Perf.TxPerSec));
      if (Verbose && !Cli.Json) {
        auto Dump = [&](const char *Name, const SimPoint &Point) {
          DomainEvents T = Point.Events.total();
          std::printf(
              "  %-10s %-9s cyc/tx=%.3gM mm%%=%.1f U=%.2f bus/tx=%.2fMB "
              "L2miss=%llu wb=%llu pf=%llu instr=%.3gM\n",
              W.Name.c_str(), Name, Point.Perf.CyclesPerTx / 1e6,
              100.0 * Point.Perf.MmCyclesPerTx / Point.Perf.CyclesPerTx,
              Point.Perf.BusUtilization, Point.Perf.BusBytesPerTx / 1e6,
              static_cast<unsigned long long>(T.L2Misses),
              static_cast<unsigned long long>(T.Writebacks),
              static_cast<unsigned long long>(T.PrefetchesIssued),
              Point.Perf.InstructionsPerTx / 1e6);
        };
        Dump("default", Default);
        Dump("region", Region);
        Dump("ddmalloc", DDm);
      }
    }
    if (Cli.Json) {
      J.beginObject().field("platform", P.Name).key("rows");
      Out.writeJson(J);
      J.endObject();
    } else {
      std::printf("--- platform: %s-like, %u cores ---\n", P.Name.c_str(),
                  P.Cores);
      std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(),
                 stdout);
      std::printf("\n");
    }
  }

  if (Cli.Json) {
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Paper: DDmalloc best everywhere (max +11.1%% Xeon, +11.4%% "
                "Niagara; avg +7.7%%/+8.3%%); region as low as -27.2%% on "
                "Xeon, mixed on Niagara.\n");
  }
  return 0;
}
