//===- experiments/BenchCli.h - Shared bench command line ------*- C++ -*-===//
///
/// \file
/// The flag set every grid bench shares (--scale/--warmup/--transactions/
/// --seed, --csv/--json output selection, the --jobs sweep-parallelism
/// knob), bundled so the benches stop re-declaring slightly different
/// copies of the same parsing loop. A bench keeps its own defaults by
/// assigning the fields before registering the flags.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_EXPERIMENTS_BENCHCLI_H
#define DDM_EXPERIMENTS_BENCHCLI_H

#include "experiments/Measure.h"
#include "experiments/SweepRunner.h"
#include "support/ArgParse.h"

namespace ddm {

/// Common bench flags and their conversions. Field values at registration
/// time are the defaults shown in --help.
struct BenchCli {
  double Scale = 1.0;
  unsigned WarmupTx = 1;
  unsigned MeasureTx = 2;
  uint64_t Seed = 1;
  unsigned Jobs = 0; ///< Sweep workers; 0 = all hardware threads.
  bool Csv = false;
  bool Json = false;
  std::string Backend = "arena"; ///< Page economy: "arena" or "buddy".

  /// Registers --scale, --warmup, --transactions, --seed.
  void addSimFlags(ArgParser &Parser);

  /// Registers --json and (when \p WithCsv) --csv.
  void addOutputFlags(ArgParser &Parser, bool WithCsv = true);

  /// Registers --jobs.
  void addJobsFlag(ArgParser &Parser);

  /// Registers --backend (arena|buddy). Exits with a diagnostic from
  /// backendKind() when the value is unknown.
  void addBackendFlag(ArgParser &Parser);

  /// The PageBackendKind --backend names; exits(1) on an unknown name.
  PageBackendKind backendKind() const;

  /// The SimulationOptions these flags describe; exits(1) on
  /// --transactions 0 or a bad --scale (see checkScaleFlag()).
  SimulationOptions simOptions() const;

  /// A SweepRunner honouring --jobs.
  SweepRunner makeRunner() const { return SweepRunner(Jobs); }
};

/// Exits(1) with "error: --scale must be a finite number > 0" unless
/// \p Scale is. Every binary with a --scale flag calls this (BenchCli
/// benches through simOptions()).
void checkScaleFlag(double Scale);

/// Peels a `--name=value` unsigned flag out of \p Argv before a foreign
/// argument parser (e.g. Google Benchmark) sees it. Returns true and
/// stores into \p Value when the flag was present.
bool peelUintFlag(int &Argc, char **Argv, const char *Name, uint64_t &Value);

} // namespace ddm

#endif // DDM_EXPERIMENTS_BENCHCLI_H
