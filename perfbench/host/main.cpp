//===- perfbench/host/main.cpp - Host-time benchmark binary ---------------===//
///
/// \file
/// Runs one workload of the host-time benchmark and prints one JSON
/// report: the metrics with their unit, headline value, median, quartiles
/// and sample count, the checked-operation counts, and the first failed
/// checks. perfbench/run.py builds this binary and turns the report into
/// the benchmark's result line.
///
///   perfbench_host --workload sim-sweep --seed 1 --seconds 10 --trace 0
///       --out-dir DIR --digest-file perfbench/sim-sweep.digest
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "support/ArgParse.h"
#include "support/Json.h"

#include <cstdio>
#include <filesystem>

using namespace perfbench;

int main(int Argc, char **Argv) {
  Options O;
  uint64_t Trace = 0;
  ddm::ArgParser Parser("Host-time benchmark of the ddmalloc study program.");
  Parser.addFlag("workload", &O.Workload, "sim-sweep, replay-zoo or native-serve");
  Parser.addFlag("seed", &O.Seed, "seed every input is generated from");
  Parser.addFlag("seconds", &O.Seconds, "measured seconds");
  Parser.addFlag("trace", &Trace, "1: traced run reporting per-layer metrics");
  Parser.addFlag("out-dir", &O.OutDir, "directory for traces and span dumps");
  Parser.addFlag("digest-file", &O.DigestFile, "pinned sim-sweep digest");
  Parser.addFlag("tamper", &O.Tamper, "self-test: digest or counter");
  if (!Parser.parse(Argc, Argv))
    return 2;
  if (Trace > 1 || O.Seconds <= 0 || O.OutDir.empty()) {
    std::fprintf(stderr, "error: need --trace 0|1, --seconds > 0, --out-dir\n");
    return 2;
  }
  O.Trace = Trace == 1;
  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);

  Result R;
  if (O.Workload == "sim-sweep")
    R = runSimSweep(O);
  else if (O.Workload == "replay-zoo")
    R = runReplayZoo(O);
  else if (O.Workload == "native-serve")
    R = runNativeServe(O);
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n", O.Workload.c_str());
    return 2;
  }
  if (!O.Trace) {
    R.set("peak_rss_mb", "MB", peakRssMb());
    R.set("fail_frac", "ratio",
          static_cast<double>(R.Failed) /
              static_cast<double>(std::max<uint64_t>(R.Attempted, 1)));
  }

  ddm::JsonWriter J;
  J.beginObject()
      .field("workload", O.Workload)
      .field("seed", O.Seed)
      .field("seconds", O.Seconds)
      .field("trace", O.Trace)
      .field("correct", R.Failed == 0)
      .field("attempted", R.Attempted)
      .field("failed", R.Failed)
      .field("input_digest", R.InputDigest)
      .key("failures")
      .beginArray();
  for (const std::string &F : R.Failures)
    J.value(F);
  J.endArray().key("metrics").beginObject();
  for (const auto &[Name, M] : R.Metrics)
    J.key(Name)
        .beginObject()
        .field("value", M.Value)
        .field("unit", M.Unit)
        .field("median", M.Stats.Median)
        .field("q1", M.Stats.Q1)
        .field("q3", M.Stats.Q3)
        .field("n", static_cast<uint64_t>(M.Stats.N))
        .endObject();
  J.endObject().key("notes").beginObject();
  for (const auto &[Name, V] : R.Notes)
    J.field(Name, V);
  J.endObject().endObject();
  std::printf("%s\n", J.str().c_str());
  return R.Failed == 0 ? 0 : 1;
}
