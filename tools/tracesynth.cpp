//===- tools/tracesynth.cpp - Synthesize fleet-scale replay traces --------===//
///
/// \file
/// Composes recorded per-workload traces into a sharded multi-tenant
/// replay corpus (see trace/TraceSynthesizer.h). The command line (one
/// line, wrapped here)
///
///   tracesynth --out fleet --shards 4 --transactions 20000
///       --workers 1000000 --schedule diurnal --seed 42
///       traces/cgi.ddmtrc traces/dynamic-local.ddmtrc
///
/// writes fleet.0.ddmtrc .. fleet.3.ddmtrc and prints a per-shard /
/// per-tenant accounting table (or JSON with --json). Tenant arrival
/// weights default to 1 each; --weights 3,1 biases the mix. The same
/// flags and seed reproduce the shard files byte for byte on any
/// platform — CI counts on that.
///
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Table.h"
#include "trace/TraceSynthesizer.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace ddm;

namespace {

/// Parses a comma-separated list of positive integers ("3,1,2").
bool parseWeights(const std::string &Text, std::vector<uint32_t> &Out) {
  std::string Item;
  for (size_t I = 0; I <= Text.size(); ++I) {
    if (I < Text.size() && Text[I] != ',') {
      Item += Text[I];
      continue;
    }
    uint64_t V = 0;
    if (!parseUint64(Item.c_str(), V) || V == 0 || V > UINT32_MAX)
      return false;
    Out.push_back(static_cast<uint32_t>(V));
    Item.clear();
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPrefix;
  uint64_t Shards = 4;
  uint64_t Transactions = 1000;
  uint64_t Workers = 1000;
  uint64_t Seed = 1;
  std::string ScheduleName = "diurnal";
  std::string WeightsText;
  bool Json = false;
  ArgParser Parser(
      "Synthesizes a sharded multi-tenant replay corpus from recorded "
      "traces. Positional arguments are source traces (the tenants); "
      "transactions are dealt to simulated workers on an arrival schedule "
      "and sharded by worker id. Identical flags + seed reproduce the "
      "output byte for byte.");
  Parser.addFlag("out", &OutPrefix,
                 "output prefix; shards are <out>.<i>" +
                     std::string(TraceFileSuffix));
  Parser.addFlag("shards", &Shards, "number of output shard files");
  Parser.addFlag("transactions", &Transactions,
                 "total transactions across the synthetic day");
  Parser.addFlag("workers", &Workers,
                 "simulated worker-process population");
  Parser.addFlag("schedule", &ScheduleName,
                 "arrival schedule: constant, diurnal, or flash");
  Parser.addFlag("seed", &Seed, "seed for tenant/worker arrival draws");
  Parser.addFlag("weights", &WeightsText,
                 "comma-separated tenant arrival weights (default: 1 each)");
  Parser.addFlag("json", &Json, "emit the accounting report as JSON");
  if (!Parser.parse(Argc, Argv))
    return 1;

  SynthSpec Spec;
  if (!synthScheduleFromName(ScheduleName, Spec.Schedule)) {
    std::fprintf(stderr,
                 "tracesynth: unknown schedule '%s' (constant, diurnal, "
                 "flash)\n",
                 ScheduleName.c_str());
    return 1;
  }
  if (OutPrefix.empty()) {
    std::fprintf(stderr, "tracesynth: --out is required\n");
    return 1;
  }
  if (Parser.positional().empty()) {
    std::fprintf(stderr, "tracesynth: no source traces (try --help)\n");
    return 1;
  }
  if (Shards == 0 || Shards > 4096) {
    std::fprintf(stderr, "tracesynth: --shards must be in 1..4096\n");
    return 1;
  }
  if (Workers == 0 || Workers > UINT32_MAX) {
    std::fprintf(stderr, "tracesynth: --workers must be in 1..2^32-1\n");
    return 1;
  }

  std::vector<uint32_t> Weights;
  if (!WeightsText.empty() && !parseWeights(WeightsText, Weights)) {
    std::fprintf(stderr,
                 "tracesynth: --weights wants comma-separated positive "
                 "integers\n");
    return 1;
  }
  if (!Weights.empty() && Weights.size() != Parser.positional().size()) {
    std::fprintf(stderr,
                 "tracesynth: %zu weights for %zu source traces\n",
                 Weights.size(), Parser.positional().size());
    return 1;
  }

  for (size_t I = 0; I < Parser.positional().size(); ++I) {
    SynthSource S;
    S.Path = Parser.positional()[I];
    S.Weight = Weights.empty() ? 1 : Weights[I];
    Spec.Sources.push_back(std::move(S));
  }
  Spec.Workers = static_cast<uint32_t>(Workers);
  Spec.Transactions = Transactions;
  Spec.Shards = static_cast<uint32_t>(Shards);
  Spec.Seed = Seed;

  SynthReport Report;
  if (TraceStatus S = synthesizeTrace(Spec, OutPrefix, Report); !S) {
    std::fprintf(stderr, "tracesynth: %s\n", S.describe().c_str());
    return 1;
  }

  Table Shard({"shard", "tx", "events", "bytes"},
              {"file", "transactions", "events", "bytes"});
  for (size_t I = 0; I < Report.ShardPaths.size(); ++I)
    Shard.row()
        .cell(Report.ShardPaths[I])
        .cell(Report.ShardTransactions[I])
        .cell(Report.ShardEvents[I])
        .cell(Report.ShardBytes[I]);
  Table Tenant({"tenant", "weight", "tx"}, {"file", "weight", "transactions"});
  for (size_t I = 0; I < Spec.Sources.size(); ++I)
    Tenant.row()
        .cell(Spec.Sources[I].Path)
        .cell(static_cast<uint64_t>(Spec.Sources[I].Weight))
        .cell(Report.SourceTransactions[I]);

  if (Json) {
    JsonWriter J;
    J.beginObject()
        .field("tool", "tracesynth")
        .field("schedule", synthScheduleName(Spec.Schedule))
        .field("workers", Spec.Workers)
        .field("transactions", Spec.Transactions)
        .field("seed", Spec.Seed)
        .field("total_events", Report.TotalEvents)
        .key("shards");
    Shard.writeJson(J);
    J.key("sources");
    Tenant.writeJson(J);
    J.key("slot_transactions").beginArray();
    for (uint64_t N : Report.SlotTransactions)
      J.value(N);
    J.endArray().endObject();
    std::printf("%s\n", J.str().c_str());
    return 0;
  }

  std::fputs(Shard.renderAscii().c_str(), stdout);
  std::fputs(Tenant.renderAscii().c_str(), stdout);
  std::printf("schedule %s over %u workers, %llu tx, %llu events total\n",
              synthScheduleName(Spec.Schedule), Spec.Workers,
              static_cast<unsigned long long>(Spec.Transactions),
              static_cast<unsigned long long>(Report.TotalEvents));
  return 0;
}
