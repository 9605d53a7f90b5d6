//===- bench/fig09_memory_consumption.cpp - Reproduce Figure 9 ------------===//
///
/// \file
/// Figure 9 of the paper: the amount of memory consumed by each allocator
/// during transactions, per workload. Consumption follows the paper's
/// definitions: memory obtained from the underlying provider for the
/// default allocator, used segments plus metadata for DDmalloc, and total
/// bytes allocated during the transaction for the region allocator.
///
/// Paper shape: DDmalloc consumes 24% more than the default on average
/// (segregated storage trades space for speed); the region allocator
/// consumes about 3x on average and more than 7x in the worst case.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <cstdio>
#include <functional>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.WarmupTx = 1;
  Cli.MeasureTx = 3;
  ArgParser Parser("Reproduces Figure 9: memory consumed per transaction by "
                   "each allocator.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  Cli.addBackendFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  // Memory consumption does not depend on the machine model; use 1 core to
  // keep the run fast.
  Platform P = xeonLike();
  const std::vector<WorkloadSpec> Workloads = phpWorkloads();
  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region,
                                 AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (const WorkloadSpec &W : Workloads)
    for (AllocatorKind Kind : Kinds)
      Tasks.push_back(
          [W, Kind, P, Options] { return simulate(W, Kind, P, 1, Options); });

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  // The last three columns report the page economy behind the heaps:
  // external fragmentation of the backend's free pages, pages returned to
  // it, and the modelled end-of-run RSS. Under the default --backend arena
  // there is no page economy, so all read 0 (the allocators own private
  // reservations outright).
  Table Out({"workload", "default", "region", "x default", "ddmalloc",
             "x default", "ext frag", "pages reclaimed", "rss bytes"},
            {"workload", "default_bytes", "region_bytes", "region_x_default",
             "ddmalloc_bytes", "ddmalloc_x_default", "external_fragmentation",
             "pages_reclaimed", "rss_bytes"});
  RunningStat RegionRatio, DDmallocRatio;
  double WorstRegionRatio = 0;

  size_t Idx = 0;
  for (const WorkloadSpec &W : Workloads) {
    const SimPoint &Default = Points[Idx++];
    const SimPoint &Region = Points[Idx++];
    const SimPoint &DDm = Points[Idx++];
    // Page-economy columns, summed over the three allocators' runs (each
    // run has its own backend; ddmalloc ignores backends, contributing 0).
    double ExtFrag = 0;
    uint64_t PagesReclaimed = 0;
    uint64_t RssBytes = 0;
    for (const SimPoint *Pt : {&Default, &Region, &DDm}) {
      RssBytes += Pt->RssBytes;
      if (!Pt->PageStats)
        continue;
      if (Pt->PageStats->externalFragmentation() > ExtFrag)
        ExtFrag = Pt->PageStats->externalFragmentation();
      PagesReclaimed += Pt->PageStats->PagesReclaimed;
    }
    double Base = Default.MeanConsumptionBytes;
    double RRatio = Region.MeanConsumptionBytes / Base;
    double DRatio = DDm.MeanConsumptionBytes / Base;
    RegionRatio.add(RRatio);
    DDmallocRatio.add(DRatio);
    if (RRatio > WorstRegionRatio)
      WorstRegionRatio = RRatio;
    Out.row()
        .cell(W.Name)
        .bytesCell(Base)
        .bytesCell(Region.MeanConsumptionBytes)
        .cell(RRatio, 2)
        .bytesCell(DDm.MeanConsumptionBytes)
        .cell(DRatio, 2)
        .cell(ExtFrag, 3)
        .cell(PagesReclaimed)
        .bytesCell(RssBytes);
  }

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "fig09_memory_consumption")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .key("rows");
    Out.writeJson(J);
    J.field("region_mean_x_default", RegionRatio.mean())
        .field("region_worst_x_default", WorstRegionRatio)
        .field("ddmalloc_mean_x_default", DDmallocRatio.mean())
        .endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Figure 9: memory consumption during transactions\n\n");
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\naverages vs default: region %.2fx (paper: ~3x, worst >7x; "
                "our worst %.2fx), ddmalloc %.2fx (paper: 1.24x)\n",
                RegionRatio.mean(), WorstRegionRatio, DDmallocRatio.mean());
  }
  return 0;
}
