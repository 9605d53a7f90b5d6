//===- experiments/BenchCli.cpp - Shared bench command line ---------------===//

#include "experiments/BenchCli.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace ddm;

void BenchCli::addSimFlags(ArgParser &Parser) {
  Parser.addFlag("scale", &Scale, "workload scale (1.0 = paper call counts)");
  Parser.addFlag("warmup", &WarmupTx, "warm-up transactions");
  Parser.addFlag("transactions", &MeasureTx, "measured transactions");
  Parser.addFlag("seed", &Seed, "random seed");
}

void BenchCli::addOutputFlags(ArgParser &Parser, bool WithCsv) {
  if (WithCsv)
    Parser.addFlag("csv", &Csv, "emit CSV instead of ASCII");
  Parser.addFlag("json", &Json,
                 "emit machine-readable JSON (redirect to BENCH_*.json)");
}

void BenchCli::addJobsFlag(ArgParser &Parser) {
  Parser.addFlag("jobs", &Jobs,
                 "sweep worker threads (0 = all hardware threads); any "
                 "value produces identical output");
}

void BenchCli::addBackendFlag(ArgParser &Parser) {
  Parser.addFlag("backend", &Backend,
                 "page economy behind the allocator heaps: arena (private "
                 "mmap reservations) or buddy (shared buddy page backend)");
}

PageBackendKind BenchCli::backendKind() const {
  if (std::optional<PageBackendKind> Kind = pageBackendKindFromName(Backend))
    return *Kind;
  std::fprintf(stderr, "error: unknown backend '%s' (expected arena, buddy)\n",
               Backend.c_str());
  std::exit(1);
}

SimulationOptions BenchCli::simOptions() const {
  if (MeasureTx == 0) {
    std::fprintf(stderr, "error: --transactions must be at least 1\n");
    std::exit(1);
  }
  checkScaleFlag(Scale);
  SimulationOptions Options;
  Options.Scale = Scale;
  Options.WarmupTx = WarmupTx;
  Options.MeasureTx = MeasureTx;
  Options.Seed = Seed;
  Options.Backend = backendKind();
  return Options;
}

void ddm::checkScaleFlag(double Scale) {
  if (std::isfinite(Scale) && Scale > 0.0)
    return;
  std::fprintf(stderr, "error: --scale must be a finite number > 0\n");
  std::exit(1);
}

bool ddm::peelUintFlag(int &Argc, char **Argv, const char *Name,
                       uint64_t &Value) {
  size_t NameLen = std::strlen(Name);
  for (int I = 1; I < Argc; ++I) {
    if (std::strncmp(Argv[I], "--", 2) != 0 ||
        std::strncmp(Argv[I] + 2, Name, NameLen) != 0 ||
        Argv[I][2 + NameLen] != '=')
      continue;
    const char *Text = Argv[I] + 2 + NameLen + 1;
    // A bench is non-interactive: a malformed value silently becoming 0
    // (strtoull's behaviour) would quietly change what gets measured, so
    // bail out loudly instead.
    if (!parseUint64(Text, Value)) {
      std::fprintf(stderr, "error: invalid value '%s' for flag '--%s'\n",
                   Text, Name);
      std::exit(1);
    }
    for (int J = I; J + 1 < Argc; ++J)
      Argv[J] = Argv[J + 1];
    --Argc;
    return true;
  }
  return false;
}
