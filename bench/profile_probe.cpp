//===- bench/profile_probe.cpp - Development probe (not a paper figure) ---===//
///
/// \file
/// A timing probe used while calibrating the simulator: runs one
/// (workload, allocator, platform, cores) point and prints wall time plus
/// model internals.
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "support/ArgParse.h"

#include <chrono>
#include <cstdio>

using namespace ddm;

int main(int Argc, char **Argv) {
  std::string WorkloadName = "mediawiki-read";
  std::string AllocName = "default";
  std::string PlatformName = "xeon";
  unsigned Cores = 8;
  BenchCli Cli;
  Cli.Scale = 0.3;
  Cli.MeasureTx = 1;
  Cli.Seed = 0x5eed;
  ArgParser Parser("Calibration probe: one simulated point with timing.");
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Parser.addFlag("allocator", &AllocName, allocatorNamesJoined());
  Parser.addFlag("platform", &PlatformName, "xeon or niagara");
  Parser.addFlag("cores", &Cores, "active cores");
  Cli.addSimFlags(Parser);
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *W = findWorkload(WorkloadName);
  auto Kind = allocatorKindFromName(AllocName);
  if (!W || !Kind) {
    std::fprintf(stderr, "unknown workload or allocator\n");
    return 1;
  }
  Platform P = PlatformName == "xeon" ? xeonLike() : niagaraLike();

  SimulationOptions Options = Cli.simOptions();

  auto Start = std::chrono::steady_clock::now();
  SimPoint Point = simulate(*W, *Kind, P, Cores, Options);
  auto End = std::chrono::steady_clock::now();
  double Ms = std::chrono::duration<double, std::milli>(End - Start).count();

  DomainEvents T = Point.Events.total();
  std::printf("point: %s / %s / %s / %llu cores (scale %.2f)\n",
              W->Name.c_str(), AllocName.c_str(), P.Name.c_str(),
              static_cast<unsigned long long>(Cores), Cli.Scale);
  std::printf("wall: %.0f ms\n", Ms);
  std::printf("tx/s=%.1f  cyc/tx=%.3gM  mm%%=%.1f  U=%.3f  bus/tx=%.2f MB\n",
              Point.Perf.TxPerSec, Point.Perf.CyclesPerTx / 1e6,
              100.0 * Point.Perf.MmCyclesPerTx / Point.Perf.CyclesPerTx,
              Point.Perf.BusUtilization, Point.Perf.BusBytesPerTx / 1e6);
  std::printf("instr/tx=%.3gM  lines=%llu  L1Dmiss=%llu  L2hit=%llu  "
              "L2miss=%llu  tlbmiss=%llu  wb=%llu  pf=%llu  pfUseful=%llu\n",
              Point.Perf.InstructionsPerTx / 1e6,
              static_cast<unsigned long long>(T.LineAccesses),
              static_cast<unsigned long long>(T.L1DMisses),
              static_cast<unsigned long long>(T.L2Hits),
              static_cast<unsigned long long>(T.L2Misses),
              static_cast<unsigned long long>(T.TlbMisses),
              static_cast<unsigned long long>(T.Writebacks),
              static_cast<unsigned long long>(T.PrefetchesIssued),
              static_cast<unsigned long long>(T.PrefetchesUseful));
  std::printf("consumption=%.2f MB\n", Point.MeanConsumptionBytes / 1e6);
  return 0;
}
