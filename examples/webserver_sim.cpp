//===- examples/webserver_sim.cpp - The paper's experiment, in miniature --===//
///
/// \file
/// Runs one web workload on a simulated multicore server and compares the
/// three allocators of the PHP study - the paper's core experiment as a
/// single command:
///
///   ./build/examples/webserver_sim --workload sugarcrm --platform xeon --cores 8
///
/// Prints throughput, the memory-management share of CPU time, bus
/// utilization, and memory consumption for each allocator.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "experiments/Measure.h"
#include "support/ArgParse.h"
#include "support/Format.h"
#include "support/Table.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <algorithm>
#include <climits>
#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  std::string WorkloadName = "mediawiki-read";
  std::string PlatformName = "xeon";
  std::string RecordTrace;
  std::string ReplayTrace;
  unsigned Cores = 8;
  double Scale = 0.5;
  unsigned MeasureTx = 3;
  uint64_t Seed = 1;
  ArgParser Parser(
      "Simulates a web workload on a multicore server and compares the "
      "default, region-based, and defrag-dodging allocators.");
  Parser.addFlag("workload", &WorkloadName,
                 "mediawiki-read, mediawiki-write, sugarcrm, ezpublish, "
                 "phpbb, cakephp, specweb, or rails");
  std::string AllocatorsSpec;
  Parser.addFlag("allocators", &AllocatorsSpec,
                 "comma-separated allocators to compare (default: the PHP "
                 "study trio); names: " +
                     allocatorNamesJoined());
  Parser.addFlag("platform", &PlatformName, "xeon or niagara");
  Parser.addFlag("cores", &Cores, "active cores (1-8)");
  Parser.addFlag("scale", &Scale, "workload scale (1.0 = paper call counts)");
  Parser.addFlag("transactions", &MeasureTx, "measured transactions");
  Parser.addFlag("seed", &Seed, "random seed");
  std::string BackendName = "arena";
  Parser.addFlag("backend", &BackendName,
                 "page economy behind the allocator heaps: arena (private "
                 "reservations) or buddy (shared buddy page backend)");
  Parser.addFlag("record-trace", &RecordTrace,
                 "record the executed allocation trace to this .ddmtrc file");
  Parser.addFlag("replay-trace", &ReplayTrace,
                 "replay transactions from this .ddmtrc file instead of "
                 "generating them (workload/scale/seed/transaction count "
                 "come from the trace)");
  std::string ReaderName = "auto";
  Parser.addFlag("reader", &ReaderName,
                 "trace reader for --replay-trace: auto (mmap for regular "
                 "files), stream, or mmap");
  if (!Parser.parse(Argc, Argv))
    return 1;
  checkScaleFlag(Scale);
  if (!RecordTrace.empty() && !ReplayTrace.empty()) {
    std::fprintf(stderr, "--record-trace and --replay-trace are exclusive\n");
    return 1;
  }
  if (MeasureTx == 0) {
    std::fprintf(stderr, "error: --transactions must be at least 1\n");
    return 1;
  }
  std::optional<PageBackendKind> Backend = pageBackendKindFromName(BackendName);
  if (!Backend) {
    std::fprintf(stderr, "error: unknown backend '%s' (expected arena, buddy)\n",
                 BackendName.c_str());
    return 1;
  }
  TraceReaderKind ReaderKind = TraceReaderKind::Auto;
  if (!traceReaderKindFromName(ReaderName, ReaderKind)) {
    std::fprintf(stderr, "unknown --reader '%s' (auto, stream, or mmap)\n",
                 ReaderName.c_str());
    return 1;
  }

  if (!ReplayTrace.empty()) {
    // Validate the whole file up front (clean diagnostics instead of a
    // mid-measurement abort) and take the run parameters from its
    // metadata so the replay is bit-exact against the recorded run.
    TraceSummary Summary;
    if (TraceStatus S = summarizeTrace(ReplayTrace, Summary, ReaderKind); !S) {
      std::fprintf(stderr, "bad trace '%s': %s\n", ReplayTrace.c_str(),
                   S.describe().c_str());
      return 1;
    }
    // Traces captured from real processes (the LD_PRELOAD shim) carry a
    // free-form workload name; fall back to --workload for the host-side
    // parameters (state size, touch counts) the trace does not encode.
    if (findWorkload(Summary.Meta.Workload)) {
      WorkloadName = Summary.Meta.Workload;
    } else {
      std::fprintf(stderr,
                   "trace workload '%s' is not built in; hosting the replay "
                   "on --workload %s\n",
                   Summary.Meta.Workload.c_str(), WorkloadName.c_str());
    }
    Scale = Summary.Meta.Scale;
    Seed = Summary.Meta.Seed;
    // Relive the whole recorded run (1 warmup + the rest measured); a
    // partial replay would not reproduce the recorded numbers. Shorter
    // runs come from `tracestat --truncate`, not from --transactions.
    if (Summary.Transactions < 2) {
      std::fprintf(stderr,
                   "trace '%s' holds %llu transaction(s); replay needs at "
                   "least 2 (1 warmup + 1 measured)\n",
                   ReplayTrace.c_str(),
                   static_cast<unsigned long long>(Summary.Transactions));
      return 1;
    }
    MeasureTx = std::min<uint64_t>(Summary.Transactions - 1, UINT_MAX);
    std::fprintf(stderr,
                 "replaying %llu transactions from %s (workload %s)\n",
                 static_cast<unsigned long long>(Summary.Transactions),
                 ReplayTrace.c_str(), WorkloadName.c_str());
  }

  const WorkloadSpec *W = findWorkload(WorkloadName);
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'; try --help\n",
                 WorkloadName.c_str());
    return 1;
  }
  std::optional<Platform> Preset = platformByName(PlatformName);
  if (!Preset) {
    std::fprintf(stderr, "unknown platform '%s' (xeon or niagara)\n",
                 PlatformName.c_str());
    return 1;
  }
  Platform P = *Preset;
  std::string CoresError;
  if (!validateActiveCores(P, Cores, CoresError)) {
    std::fprintf(stderr, "%s\n", CoresError.c_str());
    return 1;
  }

  std::vector<AllocatorKind> Kinds = phpStudyAllocatorKinds();
  if (!AllocatorsSpec.empty()) {
    Kinds.clear();
    size_t Pos = 0;
    while (Pos <= AllocatorsSpec.size()) {
      size_t Comma = AllocatorsSpec.find(',', Pos);
      if (Comma == std::string::npos)
        Comma = AllocatorsSpec.size();
      std::string Item = AllocatorsSpec.substr(Pos, Comma - Pos);
      auto Kind = allocatorKindFromName(Item);
      if (!Kind) {
        std::fprintf(stderr, "unknown allocator '%s' (names: %s)\n",
                     Item.c_str(), allocatorNamesJoined().c_str());
        return 1;
      }
      Kinds.push_back(*Kind);
      Pos = Comma + 1;
    }
  }

  SimulationOptions Options;
  Options.Scale = Scale;
  Options.WarmupTx = 1;
  Options.MeasureTx = MeasureTx;
  Options.Seed = Seed;
  Options.Backend = *Backend;

  std::printf("workload %s on %llu %s-like core(s), scale %.2f\n\n",
              W->Name.c_str(), static_cast<unsigned long long>(Cores),
              P.Name.c_str(), Scale);

  Table Out({"allocator", "throughput (tx/s)", "vs default", "mm share %",
             "bus util %", "memory/tx"});
  double Baseline = 0;
  TraceRecorder Recorder;
  bool FirstAllocator = true;
  for (AllocatorKind Kind : Kinds) {
    // The generator's event stream is allocator-independent, so recording
    // the first allocator's run captures the inputs of every allocator;
    // replay re-reads the trace from the start for each one.
    Options.RecordSink = nullptr;
    if (!RecordTrace.empty() && FirstAllocator) {
      TraceMeta Meta;
      Meta.Workload = W->Name;
      Meta.Scale = Scale;
      Meta.Seed = Seed;
      if (TraceStatus S = Recorder.open(RecordTrace, Meta); !S) {
        std::fprintf(stderr, "cannot record '%s': %s\n", RecordTrace.c_str(),
                     S.describe().c_str());
        return 1;
      }
      Options.RecordSink = &Recorder;
    }
    TraceReplayer Replayer;
    Options.ReplaySource = nullptr;
    if (!ReplayTrace.empty()) {
      if (TraceStatus S = Replayer.open(ReplayTrace, ReaderKind); !S) {
        std::fprintf(stderr, "cannot replay '%s': %s\n", ReplayTrace.c_str(),
                     S.describe().c_str());
        return 1;
      }
      Options.ReplaySource = &Replayer;
    }
    SimPoint Point =
        simulate(*W, Kind, P, Cores, Options);
    if (Options.RecordSink) {
      if (TraceStatus S = Recorder.finish(); !S) {
        std::fprintf(stderr, "recording '%s' failed: %s\n",
                     RecordTrace.c_str(), S.describe().c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "recorded %llu transactions (%llu events, %llu bytes) "
                   "to %s\n",
                   static_cast<unsigned long long>(
                       Recorder.transactionsRecorded()),
                   static_cast<unsigned long long>(Recorder.eventsRecorded()),
                   static_cast<unsigned long long>(Recorder.bytesWritten()),
                   RecordTrace.c_str());
    }
    FirstAllocator = false;
    double Tps = Point.Perf.TxPerSec * Scale;
    if (Kind == AllocatorKind::Default)
      Baseline = Tps;
    Out.row()
        .cell(allocatorKindName(Kind))
        .cell(Tps, 1)
        .percentCell(percentOver(Tps, Baseline))
        .cell(100.0 * Point.Perf.MmCyclesPerTx / Point.Perf.CyclesPerTx, 1)
        .cell(100.0 * Point.Perf.BusUtilization, 1)
        .cell(formatBytes(static_cast<uint64_t>(Point.MeanConsumptionBytes)));
  }
  std::fputs(Out.renderAscii().c_str(), stdout);
  std::printf("\nTry --cores 1 vs --cores 8: the region allocator wins on "
              "one core and loses on eight - the paper's headline result.\n");
  return 0;
}
