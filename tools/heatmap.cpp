//===- tools/heatmap.cpp - Access heat maps from trace replay -------------===//
///
/// \file
/// Replays captured traces (including the synthesized fleet shards)
/// through a runtime whose only sink is the DAMON-style AccessSampler,
/// then prints the per-region heat report — region table with heat, age,
/// and access-width histograms as text, or the sampler's deterministic
/// JSON report per shard. Because both the replay and the sampler are
/// deterministic over canonical addresses, the report for a given trace,
/// allocator, and sampler configuration is byte-identical on every run
/// and machine — which is what lets CI diff it.
///
//===----------------------------------------------------------------------===//

#include "core/AllocatorFactory.h"
#include "runtime/TransactionRuntime.h"
#include "sampling/AccessSampler.h"
#include "support/ArgParse.h"
#include "trace/TraceReplayer.h"
#include "workload/WorkloadSpec.h"

#include <cstdio>
#include <string>

using namespace ddm;

namespace {

AllocatorKind kindByName(const std::string &Name) {
  for (AllocatorKind Kind : allAllocatorKinds())
    if (Name == allocatorKindName(Kind))
      return Kind;
  std::fprintf(stderr, "unknown allocator '%s'\n", Name.c_str());
  std::exit(1);
}

/// Minimal JSON string escape for file paths and workload names.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Allocator = "ddmalloc";
  uint64_t Transactions = 0; // 0 = the whole trace.
  unsigned SampleInterval = 32;
  uint64_t WindowEvents = 2048;
  unsigned MaxRegions = 64;
  bool Json = false;
  ArgParser Parser(
      "Replays traces through the access sampler and prints per-region "
      "heat maps. Positional arguments are trace files (.ddmtrc).");
  Parser.addFlag("allocator", &Allocator,
                 "allocator the replay runs against (see README zoo table)");
  Parser.addFlag("transactions", &Transactions,
                 "transactions to replay per trace (0 = all)");
  Parser.addFlag("sample-interval", &SampleInterval,
                 "sample one in N load/store events");
  Parser.addFlag("window", &WindowEvents,
                 "sampled events per aggregation window");
  Parser.addFlag("max-regions", &MaxRegions, "region-count bound");
  Parser.addFlag("json", &Json, "machine-readable report per trace");
  if (!Parser.parse(Argc, Argv))
    return 1;
  if (Parser.positional().empty()) {
    std::fprintf(stderr, "no trace files given (try --help)\n");
    return 1;
  }

  SamplerOptions Opts;
  Opts.SampleInterval = SampleInterval;
  Opts.WindowEvents = WindowEvents;
  Opts.MaxRegions = MaxRegions;
  // Pure monitoring: no downstream machine model, so no overhead charge.
  Opts.InstrPerSample = 0;
  AllocatorKind Kind = kindByName(Allocator);

  if (Json)
    std::printf("{\"tool\":\"heatmap\",\"allocator\":\"%s\",\"traces\":[",
                allocatorKindName(Kind));

  bool First = true;
  for (const std::string &Path : Parser.positional()) {
    TraceReplayer Replayer;
    TraceStatus Status = Replayer.open(Path);
    if (!Status.ok()) {
      std::fprintf(stderr, "%s: %s\n", Path.c_str(),
                   Status.describe().c_str());
      return 1;
    }

    // Synthesized shards name a workload this build does not generate;
    // replay drives every event, so a generic spec only has to bound the
    // state area (16 MB covers every corpus workload the shards were
    // synthesized from).
    WorkloadSpec Spec;
    if (const WorkloadSpec *Known = Replayer.workload())
      Spec = *Known;
    else
      Spec.AppStateBytes = 16ull * 1024 * 1024;
    Spec.Name = Replayer.meta().Workload;

    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = allocatorSupportsBulkFree(Kind);
    Config.Scale = Replayer.meta().Scale;
    Config.Seed = Replayer.meta().Seed;

    AccessSampler Sampler(nullptr, Opts);
    TransactionRuntime Runtime(Spec, Config, &Sampler);

    uint64_t Replayed = 0;
    bool AtEnd = false;
    while (!AtEnd && (Transactions == 0 || Replayed < Transactions)) {
      switch (Replayer.replayTransaction(Runtime)) {
      case TraceReplayer::Step::Tx:
        ++Replayed;
        break;
      case TraceReplayer::Step::End:
        AtEnd = true;
        break;
      case TraceReplayer::Step::Error:
        std::fprintf(stderr, "%s: replay failed: %s\n", Path.c_str(),
                     Replayer.status().describe().c_str());
        return 1;
      }
    }
    Sampler.flush();

    if (Json) {
      std::printf("%s{\"file\":\"%s\",\"workload\":\"%s\","
                  "\"transactions\":%llu,\"report\":%s}",
                  First ? "" : ",", jsonEscape(Path).c_str(),
                  jsonEscape(Spec.Name).c_str(),
                  static_cast<unsigned long long>(Replayed),
                  Sampler.renderJson().c_str());
      First = false;
    } else {
      std::printf("%s (%s, %llu tx, allocator %s)\n", Path.c_str(),
                  Spec.Name.c_str(),
                  static_cast<unsigned long long>(Replayed),
                  allocatorKindName(Kind));
      std::fputs(Sampler.renderText().c_str(), stdout);
      std::printf("\n");
    }
  }

  if (Json)
    std::printf("]}\n");
  return 0;
}
