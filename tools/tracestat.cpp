//===- tools/tracestat.cpp - Inspect and transform allocation traces ------===//
///
/// \file
/// The trace toolbox: validates `.ddmtrc` files and prints their
/// per-transaction call statistics in Table 3's terms (malloc/free/realloc
/// calls per transaction, mean allocation size), or rewrites them:
///
///   tracestat run.ddmtrc                      # validate + statistics
///   tracestat --json run.ddmtrc               # machine-readable form
///   tracestat --throughput run.ddmtrc         # decode-rate measurement
///   tracestat --reader stream run.ddmtrc      # force a reader kind
///   tracestat --truncate 100 --out short.ddmtrc run.ddmtrc
///   tracestat --scale-sizes 2.0 --out big.ddmtrc run.ddmtrc
///   tracestat --shard 4 --out core run.ddmtrc # core.0.ddmtrc .. core.3.ddmtrc
///   tracestat --interleave --out merged.ddmtrc core.*.ddmtrc
///
/// Sharding deals whole transactions round-robin across N outputs
/// (splitting one recorded feed across N simulated cores); interleaving is
/// the exact inverse — shard then interleave reproduces the input byte for
/// byte.
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Table.h"
#include "trace/TraceInput.h"
#include "trace/TraceReplayer.h"
#include "trace/TraceTransform.h"
#include "workload/WorkloadSpec.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ddm;

namespace {

std::string formatDouble(double V, const char *Fmt = "%.1f") {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), Fmt, V);
  return Buf;
}

/// --throughput: times a full batched decode of every input through the
/// selected reader and prints the rate. Flag-gated so the default stat
/// output stays byte-stable for the e2e tests that diff it.
int throughputTraces(const std::vector<std::string> &Paths,
                     TraceReaderKind Kind, bool Json, bool Csv) {
  struct Row {
    const char *Reader = "";
    uint64_t Events = 0;
    uint64_t Bytes = 0;
    double Ms = 0;
  };
  std::vector<Row> Rows(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    // Best of three passes: the numbers feed speedup comparisons, and a
    // single cold pass mostly measures the page cache.
    for (int Pass = 0; Pass < 3; ++Pass) {
      TraceStatus S;
      std::unique_ptr<TraceInput> In = openTraceInput(Paths[I], Kind, S);
      if (!In) {
        std::fprintf(stderr, "tracestat: '%s': %s\n", Paths[I].c_str(),
                     S.describe().c_str());
        return 1;
      }
      auto T0 = std::chrono::steady_clock::now();
      uint64_t Events = 0;
      TraceEventSpan Span;
      TraceInput::Next R;
      while ((R = In->nextBatch(Span)) == TraceInput::Next::Event)
        Events += Span.Size;
      if (R == TraceInput::Next::Error) {
        std::fprintf(stderr, "tracestat: '%s': %s\n", Paths[I].c_str(),
                     In->status().describe().c_str());
        return 1;
      }
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      Rows[I].Reader = In->readerName();
      Rows[I].Events = Events;
      Rows[I].Bytes = In->byteOffset();
      if (Pass == 0 || Ms < Rows[I].Ms)
        Rows[I].Ms = Ms;
    }
  }

  Table Out({"trace", "reader", "events", "", "ms", "events/sec", "MB/s"},
            {"file", "reader", "events", "bytes", "ms", "events_per_sec", ""});
  for (size_t I = 0; I < Paths.size(); ++I) {
    const Row &R = Rows[I];
    Out.row()
        .cell(Paths[I])
        .cell(R.Reader)
        .cell(R.Events)
        .cell(R.Bytes)
        .cell(R.Ms, 2)
        .cell(R.Ms > 0 ? static_cast<double>(R.Events) / (R.Ms / 1e3) : 0, 0)
        .cell(R.Ms > 0 ? static_cast<double>(R.Bytes) / 1e6 / (R.Ms / 1e3) : 0,
              1);
  }
  if (Json) {
    JsonWriter J;
    J.beginObject().field("tool", "tracestat").key("throughput");
    Out.writeJson(J);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
    return 0;
  }
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  return 0;
}

/// Validates and summarizes every input; prints the Table 3 view (or JSON).
int statTraces(const std::vector<std::string> &Paths, TraceReaderKind Kind,
               bool Json, bool Csv) {
  std::vector<TraceSummary> Summaries(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    if (TraceStatus S = summarizeTrace(Paths[I], Summaries[I], Kind); !S) {
      std::fprintf(stderr, "tracestat: '%s': %s\n", Paths[I].c_str(),
                   S.describe().c_str());
      return 1;
    }
  }

  // The paper's Table 3 columns, computed from the trace instead of the
  // live generator; paper reference values appear when the trace's
  // workload is one this build knows (at scale 1.0 they should agree). The
  // JSON drops the paper columns and adds the raw totals.
  Table Out({"trace", "workload", "scale", "", "tx", "", "malloc/tx", "paper",
             "free/tx", "paper", "realloc/tx", "paper", "", "",
             "alloc size (B)", "paper", "", "", "", ""},
            {"file", "workload", "scale", "seed", "transactions", "events",
             "mallocs_per_tx", "", "frees_per_tx", "", "reallocs_per_tx", "",
             "callocs", "aligned_allocs", "mean_alloc_bytes", "",
             "allocated_bytes", "object_touches", "state_touches",
             "work_instructions"});
  for (size_t I = 0; I < Paths.size(); ++I) {
    const TraceSummary &S = Summaries[I];
    const WorkloadSpec *W = findWorkload(S.Meta.Workload);
    auto PaperCount = [&](uint64_t V) {
      return W ? std::to_string(V) : std::string("-");
    };
    Out.row()
        .cell(Paths[I])
        .cell(S.Meta.Workload)
        .cell(S.Meta.Scale, 2)
        .cell(S.Meta.Seed)
        .cell(S.Transactions)
        .cell(S.Events)
        .cell(S.mallocsPerTx(), 0)
        .cell(PaperCount(W ? W->MallocCalls : 0))
        .cell(S.freesPerTx(), 0)
        .cell(PaperCount(W ? W->FreeCalls : 0))
        .cell(S.reallocsPerTx(), 0)
        .cell(PaperCount(W ? W->ReallocCalls : 0))
        .cell(S.Total.Callocs)
        .cell(S.Total.AlignedAllocs)
        .cell(S.meanAllocBytes(), 1)
        .cell(W ? formatDouble(W->MeanAllocBytes) : std::string("-"))
        .cell(S.Total.AllocatedBytes)
        .cell(S.Total.ObjectTouches)
        .cell(S.Total.StateTouches)
        .cell(S.Total.WorkInstructions);
  }
  if (Json) {
    JsonWriter J;
    J.beginObject().field("tool", "tracestat").key("traces");
    Out.writeJson(J);
    J.endObject();
    std::printf("%s\n", J.str().c_str());
    return 0;
  }
  std::fputs((Csv ? Out.renderCsv() : Out.renderAscii()).c_str(), stdout);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Truncate = 0;
  double ScaleSizes = 0.0;
  uint64_t Shard = 0;
  bool Interleave = false;
  std::string OutPath;
  bool Json = false;
  bool Csv = false;
  bool Throughput = false;
  std::string ReaderName = "auto";
  ArgParser Parser(
      "Validates allocation traces (.ddmtrc) and prints their Table 3 "
      "statistics, or transforms them (truncate, size-scale, round-robin "
      "shard/interleave). Positional arguments are input traces.");
  Parser.addFlag("truncate", &Truncate,
                 "write only the first N transactions to --out");
  Parser.addFlag("scale-sizes", &ScaleSizes,
                 "write a copy with allocation sizes scaled by this factor "
                 "to --out");
  Parser.addFlag("shard", &Shard,
                 "deal transactions round-robin across N traces named "
                 "<out>.<i>" +
                     std::string(TraceFileSuffix));
  Parser.addFlag("interleave", &Interleave,
                 "merge the input traces round-robin into --out");
  Parser.addFlag("out", &OutPath, "output path (prefix for --shard)");
  Parser.addFlag("throughput", &Throughput,
                 "measure batched decode throughput instead of statistics");
  Parser.addFlag("reader", &ReaderName,
                 "trace reader: auto (mmap for regular files), stream, or "
                 "mmap");
  Parser.addFlag("json", &Json, "emit machine-readable JSON");
  Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const std::vector<std::string> &Inputs = Parser.positional();
  if (Inputs.empty()) {
    std::fprintf(stderr, "tracestat: no input traces (try --help)\n");
    return 1;
  }
  TraceReaderKind ReaderKind = TraceReaderKind::Auto;
  if (!traceReaderKindFromName(ReaderName, ReaderKind)) {
    std::fprintf(stderr, "tracestat: unknown --reader '%s' (auto, stream, "
                         "or mmap)\n",
                 ReaderName.c_str());
    return 1;
  }
  if (Throughput)
    return throughputTraces(Inputs, ReaderKind, Json, Csv);
  unsigned Transforms = (Truncate ? 1 : 0) + (ScaleSizes != 0.0 ? 1 : 0) +
                        (Shard ? 1 : 0) + (Interleave ? 1 : 0);
  if (Transforms > 1) {
    std::fprintf(stderr, "tracestat: pick one transform at a time\n");
    return 1;
  }
  if (Transforms == 0)
    return statTraces(Inputs, ReaderKind, Json, Csv);

  if (OutPath.empty()) {
    std::fprintf(stderr, "tracestat: transforms need --out\n");
    return 1;
  }
  if (!Interleave && Inputs.size() != 1) {
    std::fprintf(stderr, "tracestat: this transform takes one input trace\n");
    return 1;
  }

  TraceStatus S;
  std::vector<std::string> Outputs;
  if (Truncate) {
    S = truncateTrace(Inputs[0], OutPath, Truncate);
    Outputs = {OutPath};
  } else if (ScaleSizes != 0.0) {
    S = scaleTraceSizes(Inputs[0], OutPath, ScaleSizes);
    Outputs = {OutPath};
  } else if (Shard) {
    for (uint64_t I = 0; I < Shard; ++I)
      Outputs.push_back(OutPath + "." + std::to_string(I) + TraceFileSuffix);
    S = shardTrace(Inputs[0], Outputs);
  } else {
    S = interleaveTraces(Inputs, OutPath);
    Outputs = {OutPath};
  }
  if (!S) {
    std::fprintf(stderr, "tracestat: %s\n", S.describe().c_str());
    return 1;
  }
  return statTraces(Outputs, ReaderKind, Json, Csv);
}
