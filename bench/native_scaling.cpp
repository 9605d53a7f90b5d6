//===- bench/native_scaling.cpp - Native thread-scaling sweep -------------===//
///
/// \file
/// Thread-scaling sweep of the native execution runtime: every allocator in
/// the zoo at 1..N worker threads, real std::thread workers executing
/// genuine transactions in saturation (closed-loop) mode. The native
/// counterpart of the paper's Figure 7 core-scaling study — here the
/// scaling limiter is the allocator's sharing model (sharded segment pool
/// vs locked central structures vs fully private heaps), not a simulated
/// bus.
///
///   ./build/bench/bench_native_scaling --threads 1,2,4,8 --json --check
///
/// --check exits nonzero if any allocator's 2-thread throughput drops below
/// --check-tolerance times its 1-thread throughput (on machines with a
/// single core, scaling is necessarily flat; the tolerance absorbs that).
///
//===----------------------------------------------------------------------===//

#include "exec/NativeExecutor.h"
#include "experiments/BenchCli.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

using namespace ddm;

namespace {

bool parseThreadList(const std::string &Text, std::vector<unsigned> &Out) {
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Item = Text.substr(Pos, Comma - Pos);
    char *End = nullptr;
    long V = std::strtol(Item.c_str(), &End, 10);
    if (!End || *End != '\0' || V < 1 || V > 256)
      return false;
    Out.push_back(static_cast<unsigned>(V));
    Pos = Comma + 1;
  }
  return !Out.empty();
}

struct Point {
  unsigned Threads = 0;
  NativeRunMetrics M;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string AllocatorName = "all";
  std::string ThreadList = "1,2,4,8";
  std::string WorkloadName = "mediawiki-read";
  uint64_t TxPerThread = 2000;
  double Scale = 0.2;
  uint64_t Seed = 0x5eed;
  bool JsonOut = false;
  bool Check = false;
  double CheckTolerance = 0.85;
  ArgParser Parser(
      "Native thread-scaling sweep: real worker threads executing genuine "
      "transactions against each allocator's thread-safe backend; reports "
      "throughput and wall-clock latency per thread count.");
  Parser.addFlag("allocator", &AllocatorName,
                 "one of " + allocatorNamesJoined() + ", or 'all'");
  Parser.addFlag("threads", &ThreadList, "comma-separated thread counts");
  Parser.addFlag("workload", &WorkloadName, "workload name");
  Parser.addFlag("tx-per-thread", &TxPerThread,
                 "transactions offered per worker thread (total scales with "
                 "the thread count)");
  Parser.addFlag("scale", &Scale, "workload scale");
  Parser.addFlag("seed", &Seed, "random seed");
  Parser.addFlag("json", &JsonOut, "emit results as JSON");
  Parser.addFlag("check", &Check,
                 "exit nonzero unless every allocator's 2-thread throughput "
                 "is at least --check-tolerance of its 1-thread throughput");
  Parser.addFlag("check-tolerance", &CheckTolerance,
                 "minimum allowed tput(2t)/tput(1t) ratio for --check");
  if (!Parser.parse(Argc, Argv))
    return 1;
  checkScaleFlag(Scale);

  const WorkloadSpec *Workload = findWorkload(WorkloadName);
  if (!Workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }
  std::vector<unsigned> Threads;
  if (!parseThreadList(ThreadList, Threads)) {
    std::fprintf(stderr, "bad --threads list '%s'\n", ThreadList.c_str());
    return 1;
  }
  std::vector<AllocatorKind> Kinds;
  if (AllocatorName == "all") {
    Kinds = allAllocatorKinds();
  } else {
    auto Kind = allocatorKindFromName(AllocatorName);
    if (!Kind) {
      std::fprintf(stderr, "unknown allocator '%s' (names: %s)\n",
                   AllocatorName.c_str(), allocatorNamesJoined().c_str());
      return 1;
    }
    Kinds = {*Kind};
  }

  bool CheckFailed = false;
  JsonWriter J;
  if (JsonOut)
    J.beginObject()
        .field("bench", "native_scaling")
        .field("workload", Workload->Name)
        .field("scale", Scale)
        .field("seed", Seed)
        .field("tx_per_thread", TxPerThread)
        .key("results")
        .beginArray();

  // One text table; the JSON nests each allocator's rows in a series.
  Table Out({"allocator", "sharing", "threads", "", "completed", "oom",
             "wall s", "tput rq/s", "p50 us", "p99 us", ""},
            {"", "", "threads", "offered", "completed", "oom_aborts",
             "wall_sec", "throughput_rps", "p50_us", "p99_us",
             "queue_max_depth"});
  for (AllocatorKind Kind : Kinds) {
    std::vector<Point> Series;
    for (unsigned T : Threads) {
      NativeExecutorConfig Cfg;
      Cfg.Kind = Kind;
      Cfg.Mix = {*Workload};
      Cfg.Load.Process = ArrivalProcess::ClosedLoop; // saturation
      Cfg.Threads = T;
      Cfg.TotalTransactions = TxPerThread * T;
      Cfg.Scale = Scale;
      Cfg.Seed = Seed;

      // Warm up heaps, code, and the thread pool outside the timed run.
      NativeExecutorConfig Warm = Cfg;
      Warm.TotalTransactions = std::min<uint64_t>(64, Cfg.TotalTransactions);
      std::string Error;
      if (!runNativeChecked(Warm, Error)) {
        std::fprintf(stderr, "%s at %u thread(s): %s\n",
                     allocatorKindName(Kind), T, Error.c_str());
        return 1;
      }
      std::optional<NativeRunMetrics> M = runNativeChecked(Cfg, Error);
      if (!M) {
        std::fprintf(stderr, "%s at %u thread(s): %s\n",
                     allocatorKindName(Kind), T, Error.c_str());
        return 1;
      }
      Series.push_back({T, std::move(*M)});
    }

    double Tput1 = 0.0, Tput2 = 0.0;
    size_t FirstRow = Out.numRows();
    for (const Point &P : Series) {
      if (P.Threads == 1)
        Tput1 = P.M.Throughput;
      if (P.Threads == 2)
        Tput2 = P.M.Throughput;
      Out.row()
          .cell(allocatorKindName(Kind))
          .cell(P.M.SharingModel)
          .cell(P.Threads)
          .cell(P.M.Offered)
          .cell(P.M.Completed)
          .cell(P.M.OomAborts)
          .cell(P.M.WallSec, 3)
          .cell(P.M.Throughput, 1)
          .cell(P.M.LatencyUs.percentile(0.50))
          .cell(P.M.LatencyUs.percentile(0.99))
          .cell(P.M.QueueMaxDepth);
    }
    if (Check && Tput1 > 0.0 && Tput2 > 0.0 &&
        Tput2 < CheckTolerance * Tput1) {
      std::fprintf(stderr,
                   "scaling check FAILED: %s tput(2t)=%.1f < %.2f * "
                   "tput(1t)=%.1f\n",
                   allocatorKindName(Kind), Tput2, CheckTolerance, Tput1);
      CheckFailed = true;
    }

    if (JsonOut) {
      J.beginObject()
          .field("allocator", allocatorKindName(Kind))
          .field("sharing", Series.front().M.SharingModel)
          .key("series");
      Out.writeJson(J, FirstRow);
      J.endObject();
    }
  }

  if (JsonOut) {
    J.endArray().field("check_passed", !CheckFailed).endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::fputs(Out.renderAscii().c_str(), stdout);
  }
  return CheckFailed ? 1 : 0;
}
