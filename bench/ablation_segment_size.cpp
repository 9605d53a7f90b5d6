//===- bench/ablation_segment_size.cpp - Section 3.2 parameter ------------===//
///
/// \file
/// The paper's segment-size discussion (Section 3.2): "using larger
/// segment size tended to increase memory footprint and cache misses while
/// it reduced the number of instructions to manage each segment"; 32 KB
/// was chosen for the best PHP throughput. This ablation sweeps the
/// segment size and reports throughput, memory consumption, and the
/// instruction/L2-miss tradeoff.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  std::string WorkloadName = "mediawiki-read";
  bool Csv = false;
  ArgParser Parser("Ablation: DDmalloc segment-size sweep (paper Section "
                   "3.2 tunable).");
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

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  Table Out({"segment", "tx/s (8 cores)", "mm instr/tx (M)", "L2 miss/tx",
             "memory consumption"});
  for (size_t SegmentKb : {8, 16, 32, 64, 128}) {
    RuntimeConfig Config;
    Config.Kind = AllocatorKind::DDmalloc;
    Config.AllocOptions.SegmentSize = SegmentKb * 1024;
    SimPoint Point = simulateRuntime(*W, Config, P, P.Cores, Options);
    Out.row()
        .cell(formatBytes(SegmentKb * 1024))
        .cell(Point.Perf.TxPerSec * Cli.Scale, 1)
        .cell(static_cast<double>(Point.Events.Mm.Instructions) / 1e6, 2)
        .cell(static_cast<uint64_t>(Point.Events.total().L2Misses))
        .cell(formatBytes(
            static_cast<uint64_t>(Point.MeanConsumptionBytes / Cli.Scale)));
  }

  std::printf("Ablation: DDmalloc segment size (%s, 8 Xeon-like cores)\n\n",
              W->Name.c_str());
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  std::printf("\nPaper: larger segments cost memory and cache misses but "
              "save per-segment management instructions; 32 KB was the "
              "sweet spot for PHP throughput.\n");
  return 0;
}
