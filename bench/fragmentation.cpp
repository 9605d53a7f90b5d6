//===- bench/fragmentation.cpp - Page economy under worker restarts -------===//
///
/// \file
/// Measures the page economy beneath the allocator zoo: each point runs a
/// Ruby-mode workload over a buddy page backend with a worker-restart
/// policy, then reports the backend's external fragmentation, the pages
/// each allocator returned to the economy, and its peak RSS against the
/// live bytes it actually held. Restarting allocators release their whole
/// heap span (and the region allocator its growth chunks on every
/// freeAll), so reclaimed pages rise with shorter restart periods while
/// fragmentation shows how badly the backend's free space shatters.
///
/// There is no figure for this in the paper — it quantifies the Section 5
/// discussion point that restart policies bound heap aging — so the output
/// goes to BENCH_fragmentation.json rather than a figure-numbered file.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Format.h"
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
  Cli.Backend = "buddy"; // The point of this bench is the page economy.
  Cli.WarmupTx = 4;
  bool Check = false;
  ArgParser Parser(
      "Page-economy bench: external fragmentation, reclaimed pages, and "
      "peak-RSS-versus-live per allocator across worker-restart periods.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Cli.addJobsFlag(Parser);
  Cli.addBackendFlag(Parser);
  Parser.addFlag("check", &Check,
                 "exit nonzero unless every allocator returns pages to the "
                 "backend under the restart policies (requires --backend "
                 "buddy)");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const double Scale = Cli.Scale;
  const WorkloadSpec *W = findWorkload("rails");
  Platform P = xeonLike();

  struct Period {
    const char *Label;
    uint64_t Tx; // 0 = never restart
  };
  const std::vector<Period> Periods = {{"8", 8}, {"32", 32}, {"no restart", 0}};
  // The allocators that can draw their heaps from a page backend.
  const AllocatorKind Kinds[] = {AllocatorKind::Region, AllocatorKind::Default,
                                 AllocatorKind::Glibc, AllocatorKind::Slab};

  std::vector<std::function<SimPoint()>> Tasks;
  for (AllocatorKind Kind : Kinds) {
    for (const Period &Pd : Periods) {
      RuntimeConfig Config;
      Config.Kind = Kind;
      Config.UseBulkFree = false;
      Config.RestartPeriodTx = Pd.Tx;
      Config.RestartCostInstructions =
          static_cast<uint64_t>(Config.RestartCostInstructions * Scale);
      // Small heap spans so the backend sees real pressure: 8 MB region
      // chunks (not the paper's 256 MB) and 64 MB heaps for the rest.
      Config.AllocOptions.HeapReserveBytes = 64ull * 1024 * 1024;
      Config.AllocOptions.RegionChunkBytes = 8ull * 1024 * 1024;

      SimulationOptions Options = Cli.simOptions();
      Options.BackendReserveBytes = 256ull * 1024 * 1024;
      // Model an end-of-run madvise of the free-but-resident pages so the
      // rss_bytes column shows what a give-back would leave resident.
      Options.ColdGiveBack = true;
      // Several restart windows per point; an equally long aged run for
      // the no-restart baseline.
      Options.MeasureTx = static_cast<unsigned>(
          Pd.Tx == 0 ? 48 : std::max<uint64_t>(3 * Pd.Tx, 24));
      Tasks.push_back([W, Config, P, Options] {
        return simulateRuntime(*W, Config, P, 1, Options);
      });
    }
  }

  SweepRunner Runner = Cli.makeRunner();
  std::vector<SimPoint> Points = Runner.run(Tasks);

  Table Out({"allocator", "restart", "pages acquired", "pages reclaimed",
             "peak pages", "ext frag", "peak RSS", "x live", "end RSS",
             "advised out"});
  JsonWriter J;
  if (Cli.Json)
    J.beginObject()
        .field("bench", "fragmentation")
        .field("seed", Cli.Seed)
        .field("scale", Scale)
        .field("backend", Cli.Backend)
        .key("rows")
        .beginArray();
  else
    std::printf("Page economy: fragmentation and reclaim per allocator "
                "(rails, %s backend)\n\n",
                Cli.Backend.c_str());

  bool CheckFailed = false;
  size_t Idx = 0;
  for (AllocatorKind Kind : Kinds) {
    uint64_t ReclaimedUnderRestarts = 0;
    for (const Period &Pd : Periods) {
      const SimPoint &Pt = Points[Idx++];
      const PageBackendStats S = Pt.PageStats.value_or(PageBackendStats());
      double PeakRss = double(S.PeakPagesLive) * double(S.PageBytes);
      double Live = Pt.MeanConsumptionBytes;
      double PeakVsLive = Live > 0 ? PeakRss / Live : 0.0;
      if (Pd.Tx != 0)
        ReclaimedUnderRestarts += S.PagesReclaimed;
      if (Cli.Json)
        J.beginObject()
            .field("allocator", allocatorKindName(Kind))
            .field("restart_period", Pd.Label)
            .field("pages_acquired", S.PagesAcquired)
            .field("pages_reclaimed", S.PagesReclaimed)
            .field("peak_pages", S.PeakPagesLive)
            .field("external_fragmentation", S.externalFragmentation())
            .field("peak_rss_bytes", PeakRss)
            .field("mean_live_bytes", Live)
            .field("peak_rss_x_live", PeakVsLive)
            .field("rss_bytes", Pt.RssBytes)
            .field("advised_out_bytes", Pt.AdvisedOutBytes)
            .endObject();
      else
        Out.row()
            .cell(allocatorKindName(Kind))
            .cell(Pd.Label)
            .cell(S.PagesAcquired)
            .cell(S.PagesReclaimed)
            .cell(S.PeakPagesLive)
            .cell(S.externalFragmentation(), 3)
            .cell(formatBytes(static_cast<uint64_t>(PeakRss)))
            .cell(PeakVsLive, 2)
            .cell(formatBytes(Pt.RssBytes))
            .cell(formatBytes(Pt.AdvisedOutBytes));
    }
    if (Check && ReclaimedUnderRestarts == 0) {
      std::fprintf(stderr,
                   "check failed: %s reclaimed no pages under the restart "
                   "policies\n",
                   allocatorKindName(Kind));
      CheckFailed = true;
    }
  }

  if (Cli.Json) {
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
    std::printf("\nShorter restart periods reclaim more pages; external "
                "fragmentation stays low because whole heap spans coalesce "
                "back into the buddy.\n");
  }
  return CheckFailed ? 1 : 0;
}
