//===- bench/selfperf.cpp - Simulator self-performance --------------------===//
///
/// \file
/// Measures the simulator itself, not the modeled system: how fast the
/// batched access-simulation path drains events, and how well the sweep
/// scales with --jobs. Runs a fixed PHP-study sub-grid twice — once
/// sequentially (--jobs 1) and once with the requested worker count — and
/// reports wall-clock per point, simulated events per second, and the
/// parallel speedup.
///
/// The two runs must produce identical simulated counters (the SweepRunner
/// determinism contract); the bench exits 2 if they do not, so a CI run
/// doubles as a determinism check.
///
///   ./build/bench/bench_selfperf --json > BENCH_selfperf.json
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/Json.h"
#include "support/Table.h"

#include <cstdio>
#include <functional>

using namespace ddm;

namespace {

/// Simulated events a point generated: per-tx instruction and line-access
/// counts across all domains, times the measured transactions.
double simulatedEvents(const SimPoint &Point, uint64_t MeasureTx) {
  DomainEvents T = Point.Events.total();
  return static_cast<double>(T.Instructions + T.LineAccesses) *
         static_cast<double>(MeasureTx);
}

bool sameCounters(const SimPoint &A, const SimPoint &B) {
  DomainEvents Ta = A.Events.total(), Tb = B.Events.total();
  return Ta.Instructions == Tb.Instructions &&
         Ta.LineAccesses == Tb.LineAccesses && Ta.L1DMisses == Tb.L1DMisses &&
         Ta.L2Misses == Tb.L2Misses && Ta.TlbMisses == Tb.TlbMisses &&
         Ta.Writebacks == Tb.Writebacks &&
         Ta.PrefetchesIssued == Tb.PrefetchesIssued &&
         A.Perf.TxPerSec == B.Perf.TxPerSec;
}

} // namespace

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.3;
  Cli.WarmupTx = 1;
  Cli.MeasureTx = 2;
  ArgParser Parser(
      "Simulator self-performance: wall-clock and events/sec of the PHP "
      "sub-grid, sequential vs --jobs N, plus a determinism cross-check.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser, /*WithCsv=*/false);
  Cli.addJobsFlag(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  SimulationOptions Options = Cli.simOptions();

  Platform P = xeonLike();
  const std::vector<WorkloadSpec> Workloads = phpWorkloads();
  const AllocatorKind Kinds[] = {AllocatorKind::Default, AllocatorKind::Region,
                                 AllocatorKind::DDmalloc};

  std::vector<std::function<SimPoint()>> Tasks;
  for (const WorkloadSpec &W : Workloads)
    for (AllocatorKind Kind : Kinds)
      Tasks.push_back(
          [W, Kind, P, Options] { return simulate(W, Kind, P, P.Cores, Options); });

  SweepRunner Sequential(1);
  std::vector<SimPoint> SeqPoints = Sequential.run(Tasks);

  SweepRunner Parallel = Cli.makeRunner();
  std::vector<SimPoint> ParPoints = Parallel.run(Tasks);

  for (size_t I = 0; I < Tasks.size(); ++I)
    if (!sameCounters(SeqPoints[I], ParPoints[I])) {
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: point %zu differs between "
                   "--jobs 1 and --jobs %u\n",
                   I, Parallel.jobs());
      return 2;
    }

  double TotalEvents = 0;
  for (const SimPoint &Point : SeqPoints)
    TotalEvents += simulatedEvents(Point, Cli.MeasureTx);

  double SeqSec = Sequential.totalMillis() / 1e3;
  double ParSec = Parallel.totalMillis() / 1e3;
  double SeqEps = SeqSec > 0 ? TotalEvents / SeqSec : 0;
  double ParEps = ParSec > 0 ? TotalEvents / ParSec : 0;
  double Speedup = ParSec > 0 ? SeqSec / ParSec : 0;

  Table Out({"workload", "allocator", "seq ms", "par ms"},
            {"workload", "allocator", "sequential_ms", "parallel_ms"});
  size_t Idx = 0;
  for (const WorkloadSpec &W : Workloads)
    for (AllocatorKind Kind : Kinds) {
      Out.row()
          .cell(W.Name)
          .cell(allocatorKindName(Kind))
          .cell(Sequential.pointMillis()[Idx], 1)
          .cell(Parallel.pointMillis()[Idx], 1);
      ++Idx;
    }

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "selfperf")
        .field("seed", Cli.Seed)
        .field("scale", Cli.Scale)
        .field("grid_points", static_cast<uint64_t>(Tasks.size()))
        .field("hardware_concurrency",
               static_cast<uint64_t>(SweepRunner::defaultJobs()))
        .field("simulated_events", TotalEvents)
        .key("sequential")
        .beginObject()
        .field("total_ms", Sequential.totalMillis())
        .field("events_per_sec", SeqEps)
        .endObject()
        .key("parallel")
        .beginObject()
        .field("jobs", static_cast<uint64_t>(Parallel.jobs()))
        .field("total_ms", Parallel.totalMillis())
        .field("events_per_sec", ParEps)
        .field("speedup", Speedup)
        .endObject()
        .field("deterministic", true)
        .key("points");
    Out.writeJson(J);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Simulator self-performance (%zu points, %s)\n\n",
                Tasks.size(), P.Name.c_str());
    std::fputs(Out.renderAscii().c_str(), stdout);
    std::printf("\nsequential: %.0f ms, %.3g events/sec\n",
                Sequential.totalMillis(), SeqEps);
    std::printf("--jobs %u:  %.0f ms, %.3g events/sec (speedup %.2fx)\n",
                Parallel.jobs(), Parallel.totalMillis(), ParEps, Speedup);
    std::printf("counters identical across worker counts: yes\n");
  }
  return 0;
}
