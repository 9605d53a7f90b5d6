//===- bench/fig12_restart_period.cpp - Reproduce Figure 12 ---------------===//
///
/// \file
/// Figure 12 of the paper: performance improvement from restarting the
/// Ruby processes at various periods (every 20, 100, 500, 2500
/// transactions, and never), relative to no restarts, for glibc and
/// DDmalloc.
///
/// Paper shape: restarting every 500 transactions helps (DDmalloc +4.0%,
/// glibc +1.1%) because a long-running heap ages - free lists get chained
/// in scattered order, litter spreads the live set over more lines and
/// pages - while very frequent restarts pay more in process boot cost than
/// they recover.
///
/// Known model deviation (see EXPERIMENTS.md): our simulation attributes
/// more aging to glibc (litter blocks coalescing and spreads its heap)
/// than to DDmalloc, while the paper measured the opposite ordering; the
/// cost-versus-benefit shape of the restart period is reproduced for both.
///
/// Restart periods are scaled together with the workload (at --scale 0.5 a
/// paper period of 500 becomes 250 simulated transactions) so heap aging
/// per restart window is comparable.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Json.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

using namespace ddm;

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.5;
  unsigned MaxMeasureTx = 375;
  ArgParser Parser("Reproduces Figure 12: throughput improvement vs restart "
                   "period for glibc and DDmalloc (Ruby on Rails).");
  Parser.addFlag("scale", &Cli.Scale, "workload scale");
  Parser.addFlag("seed", &Cli.Seed, "random seed");
  Parser.addFlag("max-transactions", &MaxMeasureTx,
                 "cap on measured transactions per point");
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;
  checkScaleFlag(Cli.Scale);

  const double Scale = Cli.Scale;
  const WorkloadSpec *W = findWorkload("rails");
  Platform P = xeonLike();

  struct Period {
    const char *Label;
    uint64_t Tx; // 0 = never restart
  };
  auto Scaled = [Scale](double PaperPeriod) {
    return std::max<uint64_t>(2, static_cast<uint64_t>(PaperPeriod * Scale));
  };
  const std::vector<Period> Periods = {
      {"20", Scaled(20)},   {"100", Scaled(100)},   {"500", Scaled(500)},
      {"2500", Scaled(2500)}, {"no restart", 0},
  };
  const AllocatorKind Kinds[] = {AllocatorKind::Glibc, AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : Kinds) {
    for (const Period &Pd : Periods) {
      RuntimeConfig Config;
      Config.Kind = Kind;
      Config.UseBulkFree = false;
      Config.RestartPeriodTx = Pd.Tx;
      // Scale the fixed boot cost like the transactions.
      Config.RestartCostInstructions =
          static_cast<uint64_t>(Config.RestartCostInstructions * Scale);

      SimulationOptions Options;
      Options.Scale = Scale;
      Options.Seed = Cli.Seed;
      // Measure to steady state: several restart windows, or a long aged
      // run for the no-restart / very-long-period cases.
      Options.WarmupTx = 10;
      Options.MeasureTx =
          Pd.Tx == 0 ? MaxMeasureTx
                     : std::clamp<uint64_t>(3 * Pd.Tx, 100, MaxMeasureTx);
      Tasks.push_back([W, Config, P, Options] {
        return simulateRuntime(*W, Config, P, P.Cores, Options);
      });
    }
  }

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  // One text table; the JSON nests each allocator's points in a series.
  Table Out({"allocator", "restart period", "throughput (tx/s)",
             "vs no restart"},
            {"", "period", "tps", "vs_no_restart_pct"});
  size_t Idx = 0;
  for (AllocatorKind Kind : Kinds) {
    // The "no restart" baseline is the last period in the grid.
    double Baseline = Points[Idx + Periods.size() - 1].Perf.TxPerSec * Scale;
    for (const Period &Pd : Periods) {
      double Tps = Points[Idx++].Perf.TxPerSec * Scale;
      Out.row()
          .cell(allocatorKindName(Kind))
          .cell(Pd.Label)
          .cell(Tps, 1)
          .percentCell(percentOver(Tps, Baseline));
    }
  }

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "fig12_restart_period")
        .field("seed", Cli.Seed)
        .field("scale", Scale)
        .key("series")
        .beginArray();
    for (size_t K = 0; K < std::size(Kinds); ++K) {
      J.beginObject()
          .field("allocator", allocatorKindName(Kinds[K]))
          .key("points");
      Out.writeJson(J, K * Periods.size(), (K + 1) * Periods.size());
      J.endObject();
    }
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Figure 12: improvement from periodic process restarts (Ruby "
                "on Rails, 8 Xeon-like cores)\n\n");
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\nPaper: at period 500, +4.0%% for DDmalloc vs +1.1%% for "
                "glibc; very short periods lose to the restart cost.\n");
  }
  return 0;
}
