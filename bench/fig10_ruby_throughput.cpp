//===- bench/fig10_ruby_throughput.cpp - Reproduce Figure 10 --------------===//
///
/// \file
/// Figure 10 of the paper: throughput of the Ruby on Rails application
/// with glibc malloc, Hoard, TCmalloc, and DDmalloc on 8 Xeon cores. The
/// Ruby runtime has no freeAll: objects are swept per-object at request
/// end and every process restarts after 500 transactions (the paper's
/// methodology for comparing against allocators that support only the
/// malloc-free interface).
///
/// Paper shape: DDmalloc best (+13.6% over glibc, +5.3% over the next
/// best, TCmalloc); Hoard and TCmalloc both beat glibc.
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
  Cli.Scale = 0.12;
  Cli.WarmupTx = 30;
  Cli.MeasureTx = 80;
  uint64_t RestartPeriod = 60; // 500 x (Scale / 1.0) in allocation volume
  ArgParser Parser(
      "Reproduces Figure 10: Ruby on Rails throughput with glibc, Hoard, "
      "TCmalloc, and DDmalloc on 8 Xeon-like cores (restarting processes "
      "periodically instead of calling freeAll).");
  Cli.addSimFlags(Parser);
  Parser.addFlag("restart-period", &RestartPeriod,
                 "transactions between process restarts");
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload("rails");

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  const std::vector<AllocatorKind> Kinds = rubyStudyAllocatorKinds();

  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : Kinds) {
    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = false;
    Config.RestartPeriodTx = RestartPeriod;
    // A restart costs a fixed interpreter boot; scale it like the
    // transactions so the amortized share matches the full-size workload.
    Config.RestartCostInstructions =
        static_cast<uint64_t>(Config.RestartCostInstructions * Cli.Scale);
    Tasks.push_back([W, Config, P, Options] {
      return simulateRuntime(*W, Config, P, P.Cores, Options);
    });
  }

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  Table Out({"allocator", "throughput (tx/s)", "vs glibc"},
            {"allocator", "tps", "vs_glibc_pct"});
  double Baseline = 0;
  for (size_t I = 0; I < Kinds.size(); ++I) {
    AllocatorKind Kind = Kinds[I];
    double Tps = Points[I].Perf.TxPerSec * Cli.Scale;
    if (Kind == AllocatorKind::Glibc)
      Baseline = Tps;
    Out.row()
        .cell(allocatorKindName(Kind))
        .cell(Tps, 1)
        .percentCell(percentOver(Tps, Baseline));
  }

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "fig10_ruby_throughput")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .field("restart_period_tx", RestartPeriod)
        .key("rows");
    Out.writeJson(J);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Figure 10: Ruby on Rails throughput on 8 Xeon-like cores "
                "(restart every %llu transactions)\n\n",
                static_cast<unsigned long long>(RestartPeriod));
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\nPaper: glibc 100%%, Hoard and TCmalloc in between, DDmalloc "
                "best at +13.6%% over glibc (+5.3%% over TCmalloc).\n");
  }
  return 0;
}
