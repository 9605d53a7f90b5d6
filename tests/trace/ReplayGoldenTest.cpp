//===- tests/trace/ReplayGoldenTest.cpp - Pinned replay outputs ----------===//
///
/// \file
/// Pins everything a replay leaves behind — the replayer's TraceStats and
/// event count, the allocator's call counts and live/peak bytes, the
/// hardening layer's checks, recycles and reports, and the runtime's
/// transaction, restart and consumption metrics — for one recorded PHP
/// trace and one recorded rails trace (Ruby mode, a restart every 20
/// transactions) replayed through every allocator kind bare, through
/// three hardened kinds and through three buddy-backed kinds. The expected
/// strings were captured from the replayer before it moved to a dense
/// per-transaction object table; any change in what the replay path
/// validates, forwards or reclaims shows up here as a changed number.
///
//===----------------------------------------------------------------------===//

#include "page/PageBackend.h"
#include "runtime/TransactionRuntime.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace ddm;

namespace {

constexpr uint64_t Seed = 77;
constexpr unsigned PhpTx = 4;
constexpr unsigned RubyTx = 25;

struct Variant {
  AllocatorKind Kind;
  bool Harden;
  bool Buddy;
};

std::vector<Variant> variants() {
  std::vector<Variant> V;
  for (AllocatorKind K : allAllocatorKinds())
    V.push_back({K, false, false});
  for (AllocatorKind K : {AllocatorKind::DDmalloc, AllocatorKind::Default,
                          AllocatorKind::TCMalloc})
    V.push_back({K, true, false});
  for (AllocatorKind K :
       {AllocatorKind::Region, AllocatorKind::Default, AllocatorKind::Glibc})
    V.push_back({K, false, true});
  return V;
}

std::string label(const Variant &V) {
  return std::string(allocatorKindName(V.Kind)) +
         (V.Harden ? "+harden" : V.Buddy ? "+buddy" : "");
}

RuntimeConfig config(AllocatorKind Kind, bool Ruby, double Scale) {
  RuntimeConfig C;
  C.Kind = Kind;
  C.Scale = Scale;
  C.Seed = Seed;
  if (Ruby) {
    C.UseBulkFree = false;
    C.LeakFraction = 0.01;
    C.RestartPeriodTx = 20;
  } else {
    C.UseBulkFree = allocatorSupportsBulkFree(Kind);
    C.LeakFraction = 0.0;
  }
  return C;
}

RuntimeConfig variantConfig(const Variant &V, bool Ruby, double Scale) {
  RuntimeConfig C = config(V.Kind, Ruby, Scale);
  C.AllocOptions.Hardening.Enabled = V.Harden;
  if (V.Buddy)
    C.AllocOptions.Backend = createBuddyBackend(1ull << 30);
  return C;
}

/// Records \p Transactions of \p W under \p Config; returns the path.
std::string record(const WorkloadSpec &W, const RuntimeConfig &Config,
                   unsigned Transactions, const std::string &Name) {
  std::string Path =
      testing::TempDir() + "ddm_golden_" + Name + TraceFileSuffix;
  TraceRecorder Recorder;
  TraceMeta Meta{W.Name, Config.Scale, Config.Seed};
  EXPECT_TRUE(Recorder.open(Path, Meta).ok());
  TransactionRuntime Runtime(W, Config);
  Runtime.attachTraceSink(&Recorder);
  for (unsigned I = 0; I < Transactions; ++I)
    Runtime.executeTransaction();
  EXPECT_TRUE(Recorder.finish().ok());
  return Path;
}

std::string num(double V) {
  char Buffer[40];
  std::snprintf(Buffer, sizeof(Buffer), "%.17g", V);
  return Buffer;
}

std::string render(const TraceStats &S) {
  return std::to_string(S.Mallocs) + " " + std::to_string(S.Frees) + " " +
         std::to_string(S.Reallocs) + " " + std::to_string(S.Callocs) + " " +
         std::to_string(S.AlignedAllocs) + " " +
         std::to_string(S.AllocatedBytes) + " " +
         std::to_string(S.ObjectTouches) + " " +
         std::to_string(S.StateTouches) + " " +
         std::to_string(S.WorkInstructions);
}

std::string render(const TraceReplayer &Rep, TransactionRuntime &RT) {
  std::string Out = "trace " + std::to_string(Rep.transactionsReplayed()) +
                    " " + std::to_string(Rep.eventsReplayed()) + " " +
                    render(Rep.totalStats()) + "\n";
  const AllocatorStats &A = RT.allocator().stats();
  Out += "alloc " + std::to_string(A.MallocCalls) + " " +
         std::to_string(A.FreeCalls) + " " + std::to_string(A.ReallocCalls) +
         " " + std::to_string(A.FreeAllCalls) + " " +
         std::to_string(A.BytesRequested) + " " +
         std::to_string(A.UsableBytesLive) + " " +
         std::to_string(A.PeakUsableBytesLive) + "\n";
  if (HardenedAllocator *H = asHardened(&RT.allocator())) {
    const HardeningStats &S = H->hardeningStats();
    Out += "harden " + std::to_string(S.RedzoneChecks) + " " +
           std::to_string(S.PoisonChecks) + " " +
           std::to_string(S.QuarantineRecycles) + " " +
           std::to_string(S.GuardAllocs) + " " +
           std::to_string(S.QuarantinedBytes) + " " +
           std::to_string(S.Reports) + "\n";
  }
  const RuntimeMetrics &M = RT.metrics();
  Out += "runtime " + std::to_string(M.Transactions) + " " +
         std::to_string(M.Restarts) + " " + std::to_string(M.OomAborts) + " " +
         std::to_string(M.CorruptionAborts) + " " +
         std::to_string(M.RestartInstructions) + " " + render(M.TotalTrace) +
         "\nconsumption " + std::to_string(M.ConsumptionBytes.count()) + " " +
         num(M.ConsumptionBytes.mean()) + " " + num(M.ConsumptionBytes.min()) +
         " " + num(M.ConsumptionBytes.max()) + "\n";
  return Out;
}

/// Replays \p Path through every variant and compares each rendering
/// with \p Expected (keyed by variant label).
void replayThroughZoo(const WorkloadSpec &W, const std::string &Path,
                      bool Ruby, double Scale, unsigned Transactions,
                      const std::map<std::string, std::string> &Expected) {
  for (const Variant &V : variants()) {
    SCOPED_TRACE(label(V));
    TransactionRuntime RT(W, variantConfig(V, Ruby, Scale));
    TraceReplayer Rep;
    ASSERT_TRUE(Rep.open(Path).ok());
    TraceReplayer::Step S;
    while ((S = Rep.replayTransaction(RT)) == TraceReplayer::Step::Tx)
      ASSERT_EQ(RT.lastOutcome().Status, TxStatus::Ok);
    ASSERT_EQ(S, TraceReplayer::Step::End) << Rep.status().describe();
    EXPECT_EQ(Rep.transactionsReplayed(), Transactions);
    auto It = Expected.find(label(V));
    ASSERT_NE(It, Expected.end());
    EXPECT_EQ(render(Rep, RT), It->second);
  }
}

// clang-format off
const std::map<std::string, std::string> PhpExpected = {
    {"ddmalloc",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5333 241 4 383078 0 18832\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 918048 860704 959008\n"},
    {"region",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5092 241 4 383078 0 100664\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 97576 92992 100664\n"},
    {"obstack",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5092 241 4 383078 0 100664\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 101376 98304 102400\n"},
    {"default",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6072 5092 241 4 353498 0 20336\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 262144 262144 262144\n"},
    {"glibc",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6072 6072 241 0 353498 0 20336\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 131072 131072 131072\n"},
    {"tcmalloc",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 6313 241 0 383078 0 18832\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 1933312 1835008 1966080\n"},
    {"hoard",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 6313 241 0 383078 0 18832\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 1605632 1572864 1703936\n"},
    {"slab",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 6313 241 0 383078 0 18832\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 243712 188416 262144\n"},
    {"adaptive",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6072 5092 241 4 353498 0 19488\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 234496 159744 262144\n"},
    {"ddmalloc+harden",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5333 241 4 383078 0 17787\n"
     "harden 6554 5333 5077 0 0 0\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 778784 762400 795168\n"},
    {"default+harden",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5333 241 4 383078 0 17787\n"
     "harden 6554 5333 5077 0 0 0\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 262144 262144 262144\n"},
    {"tcmalloc+harden",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 6313 241 0 383078 0 17787\n"
     "harden 6554 6249 6249 0 4169 0\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 1605632 1507328 1638400\n"},
    {"region+buddy",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6313 5092 241 4 383078 0 100664\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 97576 92992 100664\n"},
    {"default+buddy",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6072 5092 241 4 353498 0 20336\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 262144 262144 262144\n"},
    {"glibc+buddy",
     "trace 4 38117 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "alloc 6072 6072 241 0 353498 0 20336\n"
     "runtime 4 0 0 0 0 6072 5092 241 0 0 353498 12136 8500 3036000\n"
     "consumption 4 131072 131072 131072\n"},
};

const std::map<std::string, std::string> RubyExpected = {
    {"ddmalloc",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 3053 62 0 184400 408 7896\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 943279.35999999999 762400 991776\n"},
    {"region",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 2993 62 0 184400 187792 187792\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 332203.84000000003 34352 739400\n"},
    {"obstack",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 2993 62 0 184400 187792 187792\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 340295.67999999999 36864 753664\n"},
    {"default",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3000 2993 62 0 175165 440 8696\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 262144 262144 262144\n"},
    {"glibc",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3000 2993 62 0 175165 440 8696\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 131072 131072 131072\n"},
    {"tcmalloc",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 3053 62 0 184400 408 7896\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 1869086.72 1507328 1966080\n"},
    {"hoard",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 3053 62 0 184400 408 7896\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 1457520.6400000001 1048576 1507328\n"},
    {"slab",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 3053 62 0 184400 408 7896\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 223641.60000000001 110592 258048\n"},
    {"adaptive",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3000 2993 62 0 175165 440 8696\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 262144 262144 262144\n"},
    {"ddmalloc+harden",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3062 3055 62 0 184416 394 7583\n"
     "harden 3117 2991 2991 0 4359 0\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 791235.83999999985 664096 827936\n"},
    {"default+harden",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3062 3055 62 0 184416 394 7583\n"
     "harden 3117 2991 2991 0 4359 0\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 262144 262144 262144\n"},
    {"tcmalloc+harden",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3062 3055 62 0 184416 394 7583\n"
     "harden 3117 2991 2991 0 4359 0\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 1564999.6799999997 1310720 1638400\n"},
    {"region+buddy",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3060 2993 62 0 184400 187792 187792\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 332203.84000000003 34352 739400\n"},
    {"default+buddy",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3000 2993 62 0 175165 440 8696\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 262144 262144 262144\n"},
    {"glibc+buddy",
     "trace 25 90495 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "alloc 3000 2993 62 0 175165 440 8696\n"
     "runtime 25 1 0 0 60000000 15000 12205 340 0 0 868764 29950 17975 10500000\n"
     "consumption 25 131072 131072 131072\n"},
};
// clang-format on

} // namespace

TEST(ReplayGoldenTest, PhpTraceThroughTheZoo) {
  constexpr double Scale = 0.01;
  const WorkloadSpec W = mediaWikiReadOnly();
  std::string Path =
      record(W, config(AllocatorKind::DDmalloc, false, Scale), PhpTx, "php");
  replayThroughZoo(W, Path, false, Scale, PhpTx, PhpExpected);
  std::remove(Path.c_str());
}

TEST(ReplayGoldenTest, RubyTraceWithRestartsThroughTheZoo) {
  constexpr double Scale = 0.005;
  const WorkloadSpec W = railsApp();
  std::string Path =
      record(W, config(AllocatorKind::Glibc, true, Scale), RubyTx, "rails");
  replayThroughZoo(W, Path, true, Scale, RubyTx, RubyExpected);
  std::remove(Path.c_str());
}
