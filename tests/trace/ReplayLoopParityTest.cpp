//===- tests/trace/ReplayLoopParityTest.cpp - Fast and generic replay -----===//
///
/// \file
/// TraceReplayer has one per-event loop, instantiated on the final
/// TransactionRuntime behind replayTransaction (the fast path) and on
/// TxExecutor behind replayTransactionInto (the generic path). Each input
/// here is replayed through both, each into its own twin runtime: the
/// generic side drives the runtime through a forwarding executor and calls
/// completeTransaction itself. The step sequence, the diagnostic (text,
/// byte offset, event index), the replayed totals and the runtimes'
/// allocator stats and metrics must all match.
///
/// The inputs are every malformed stream TraceCorruptionTest's Replay*
/// cases reject, a replay whose allocator runs dry mid-transaction, and
/// every recorded trace in traces/ under three runtime configurations.
///
/// The replayer's handlers run inside the reader's decode loop, so the
/// last group also drives what that loop hands them: version-2 calloc and
/// aligned events (a bad alignment among them), both byte sources, and a
/// transaction that crosses a frame boundary with the event of interest
/// in the block's MaxEventBytes tail, where the careful decoder takes
/// over. There summarizeTrace, the validating scan, must also report the
/// same diagnostic and totals.
///
//===----------------------------------------------------------------------===//

#include "runtime/TransactionRuntime.h"
#include "support/FaultInjection.h"
#include "trace/TraceCodec.h"
#include "trace/TraceReplayer.h"
#include "trace/TraceWriter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

using namespace ddm;

namespace {

/// Forwards every event to a runtime through the TxExecutor interface, so
/// the replayer instantiates its loop on TxExecutor, not the runtime.
class ForwardingExecutor final : public TxExecutor {
public:
  explicit ForwardingExecutor(TransactionRuntime &RT) : RT(RT) {}
  void onAlloc(uint32_t Id, size_t Size) override { RT.onAlloc(Id, Size); }
  void onCalloc(uint32_t Id, size_t Size) override { RT.onCalloc(Id, Size); }
  void onAllocAligned(uint32_t Id, size_t Size, uint32_t Align) override {
    RT.onAllocAligned(Id, Size, Align);
  }
  void onFree(uint32_t Id) override { RT.onFree(Id); }
  void onRealloc(uint32_t Id, size_t OldSize, size_t NewSize) override {
    RT.onRealloc(Id, OldSize, NewSize);
  }
  void onTouch(uint32_t Id, bool IsWrite) override { RT.onTouch(Id, IsWrite); }
  void onWork(uint64_t Instructions) override { RT.onWork(Instructions); }
  void onStateTouch(uint64_t Offset, bool IsWrite) override {
    RT.onStateTouch(Offset, IsWrite);
  }
  bool txAborted() const override { return RT.txAborted(); }

private:
  TransactionRuntime &RT;
};

/// One replay set-up: the runtime's workload and configuration, and an
/// optional fault plan armed for the replay.
struct ReplaySetup {
  WorkloadSpec Workload;
  RuntimeConfig Config;
  /// The state-area size the replay enforces (the runtime's workload is
  /// switched to it after construction, since a runtime needs a nonempty
  /// state area of its own).
  uint64_t StateBytes;
  std::string Faults;
};

std::string render(const TraceStats &S) {
  return std::to_string(S.Mallocs) + " " + std::to_string(S.Frees) + " " +
         std::to_string(S.Reallocs) + " " + std::to_string(S.Callocs) + " " +
         std::to_string(S.AlignedAllocs) + " " +
         std::to_string(S.AllocatedBytes) + " " +
         std::to_string(S.ObjectTouches) + " " +
         std::to_string(S.StateTouches) + " " +
         std::to_string(S.WorkInstructions);
}

/// What a validating scan reports too: the diagnostic, the totals of the
/// completed transactions and, when the trace is clean, its counts.
std::string renderScan(const TraceStatus &St, const TraceStats &Total,
                       uint64_t Transactions, uint64_t Events) {
  std::string Out = "status " + St.describe() + " @" +
                    std::to_string(St.ByteOffset) + " #" +
                    std::to_string(St.EventIndex) + "\ntotal " +
                    render(Total) + "\n";
  if (St.ok())
    Out += "count " + std::to_string(Transactions) + " " +
           std::to_string(Events) + "\n";
  return Out;
}

/// Everything one replay leaves behind, as text.
std::string render(const std::string &Steps, const TraceReplayer &Rep,
                   const TraceStats &Total, TransactionRuntime &RT) {
  const TraceStatus &St = Rep.status();
  std::string Out = "steps " + Steps + "\nstatus " + St.describe() + " @" +
                    std::to_string(St.ByteOffset) + " #" +
                    std::to_string(St.EventIndex) + "\ntrace " +
                    std::to_string(Rep.transactionsReplayed()) + " " +
                    std::to_string(Rep.eventsReplayed()) + " " +
                    render(Total) + "\n";
  const AllocatorStats &A = RT.allocator().stats();
  Out += "alloc " + std::to_string(A.MallocCalls) + " " +
         std::to_string(A.FreeCalls) + " " + std::to_string(A.ReallocCalls) +
         " " + std::to_string(A.FreeAllCalls) + " " +
         std::to_string(A.BytesRequested) + " " +
         std::to_string(A.UsableBytesLive) + " " +
         std::to_string(A.PeakUsableBytesLive) + "\n";
  const RuntimeMetrics &M = RT.metrics();
  Out += "runtime " + std::to_string(M.Transactions) + " " +
         std::to_string(M.Restarts) + " " + std::to_string(M.OomAborts) + " " +
         std::to_string(M.CorruptionAborts) + " " + render(M.TotalTrace) +
         " " + std::to_string(M.ConsumptionBytes.count()) + " " +
         std::to_string(M.ConsumptionBytes.mean()) + "\n";
  return Out;
}

char stepLetter(TraceReplayer::Step S) {
  switch (S) {
  case TraceReplayer::Step::Tx:
    return 'T';
  case TraceReplayer::Step::End:
    return 'E';
  case TraceReplayer::Step::Error:
    return 'X';
  }
  return '?';
}

void arm(const std::string &Spec) {
  FaultInjector::instance().disarm();
  if (Spec.empty())
    return;
  FaultPlan Plan;
  std::string Error;
  ASSERT_TRUE(FaultPlan::parse(Spec, Plan, Error)) << Error;
  FaultInjector::instance().arm(Plan);
}

std::unique_ptr<TransactionRuntime> makeRuntime(const ReplaySetup &S) {
  auto RT = std::make_unique<TransactionRuntime>(S.Workload, S.Config);
  WorkloadSpec Enforced = S.Workload;
  Enforced.AppStateBytes = S.StateBytes;
  RT->setWorkload(Enforced);
  return RT;
}

/// replayTransaction(TransactionRuntime &) to the first non-Tx step. With
/// \p Scan, also renders what a validating scan would report.
std::string replayFast(const std::string &Path, const ReplaySetup &S,
                       TraceReaderKind Kind = TraceReaderKind::Auto,
                       std::string *Scan = nullptr) {
  std::unique_ptr<TransactionRuntime> RT = makeRuntime(S);
  TraceReplayer Rep;
  EXPECT_TRUE(Rep.open(Path, Kind).ok()) << Path;
  arm(S.Faults);
  std::string Steps;
  TraceReplayer::Step Step;
  do
    Steps += stepLetter(Step = Rep.replayTransaction(*RT));
  while (Step == TraceReplayer::Step::Tx);
  FaultInjector::instance().disarm();
  if (Scan)
    *Scan = renderScan(Rep.status(), Rep.totalStats(),
                       Rep.transactionsReplayed(), Rep.eventsReplayed());
  return render(Steps, Rep, Rep.totalStats(), *RT);
}

/// replayTransactionInto a forwarding executor, completing each
/// transaction the way replayTransaction does.
std::string replayGeneric(const std::string &Path, const ReplaySetup &S,
                          TraceReaderKind Kind = TraceReaderKind::Auto) {
  std::unique_ptr<TransactionRuntime> RT = makeRuntime(S);
  ForwardingExecutor Forward(*RT);
  TraceReplayer Rep;
  EXPECT_TRUE(Rep.open(Path, Kind).ok()) << Path;
  arm(S.Faults);
  std::string Steps;
  TraceStats Total;
  while (true) {
    TraceStats Stats;
    TraceReplayer::Step Step = Rep.replayTransactionInto(
        Forward, Stats, RT->workload().AppStateBytes);
    Steps += stepLetter(Step);
    if (Step != TraceReplayer::Step::Tx)
      break;
    RT->completeTransaction(Stats);
    Total.add(Stats);
  }
  FaultInjector::instance().disarm();
  return render(Steps, Rep, Total, *RT);
}

/// Replays \p Path both ways and expects identical renderings; returns the
/// fast path's.
std::string expectParity(const std::string &Path, const ReplaySetup &S) {
  std::string Fast = replayFast(Path, S);
  std::string Generic = replayGeneric(Path, S);
  EXPECT_EQ(Fast, Generic) << Path;
  return Fast;
}

RuntimeConfig phpConfig(AllocatorKind Kind) {
  RuntimeConfig C;
  C.Kind = Kind;
  C.UseBulkFree = allocatorSupportsBulkFree(Kind);
  C.LeakFraction = 0.0;
  C.Seed = 77;
  return C;
}

TraceEvent event(TraceOp Op, uint32_t Id = 0, uint64_t Size = 0,
                 uint64_t OldSize = 0) {
  TraceEvent E;
  E.Op = Op;
  E.Id = Id;
  E.Size = Size;
  E.OldSize = OldSize;
  return E;
}

std::string writeEventTrace(const std::string &Name,
                            const std::vector<TraceEvent> &Events,
                            const std::string &Workload = "synthetic") {
  std::string Path =
      testing::TempDir() + "ddm_parity_" + Name + TraceFileSuffix;
  TraceWriter Writer;
  EXPECT_TRUE(Writer.open(Path, TraceMeta{Workload, 1.0, 3}).ok());
  for (const TraceEvent &E : Events)
    Writer.append(E);
  EXPECT_TRUE(Writer.finish().ok());
  return Path;
}

TEST(ReplayLoopParityTest, MalformedStreamsFailIdenticallyOnBothPaths) {
  struct Case {
    const char *Name;
    std::vector<TraceEvent> Events;
    uint64_t StateBytes = 4096;
  };
  std::vector<TraceEvent> FiveLive;
  for (uint32_t Id = 0; Id < 5; ++Id)
    FiveLive.push_back(event(TraceOp::Alloc, Id, 16));
  FiveLive.push_back(event(TraceOp::EndTx));
  std::vector<TraceEvent> StaleTouch = FiveLive;
  StaleTouch.push_back(event(TraceOp::Touch, 3));
  StaleTouch.push_back(event(TraceOp::EndTx));

  // The streams of TraceCorruptionTest's Replay* cases.
  const std::vector<Case> Cases = {
      {"doublealloc",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Alloc, 0, 16),
        event(TraceOp::EndTx)}},
      {"freeunknown",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 3),
        event(TraceOp::EndTx)}},
      {"doublefree",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 0),
        event(TraceOp::Free, 0), event(TraceOp::EndTx)}},
      {"reallocsize",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Realloc, 0, 64, 99),
        event(TraceOp::EndTx)}},
      {"touchdead",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 0),
        event(TraceOp::Touch, 0), event(TraceOp::EndTx)}},
      {"statetouch",
       {event(TraceOp::StateTouch, 0, 1 << 20), event(TraceOp::EndTx)}},
      {"midtx", {event(TraceOp::Alloc, 0, 16), event(TraceOp::Alloc, 1, 16)}},
      {"statewrap",
       {event(TraceOp::StateTouch, 0, ~uint64_t(0) - 10),
        event(TraceOp::EndTx)}},
      {"statenone",
       {event(TraceOp::StateTouch, 0, 0), event(TraceOp::EndTx)},
       /*StateBytes=*/0},
      {"idjump",
       {event(TraceOp::Alloc, 0xFFFFFFF0u, 16), event(TraceOp::EndTx)}},
      {"idbound",
       {event(TraceOp::Work, 0, 10), event(TraceOp::Work, 0, 10),
        event(TraceOp::Alloc, 2, 16), event(TraceOp::EndTx),
        event(TraceOp::Alloc, 0, 16), event(TraceOp::Work, 0, 10),
        event(TraceOp::Alloc, 3, 16), event(TraceOp::EndTx)}},
      {"beyondfree",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Free, 7),
        event(TraceOp::EndTx)}},
      {"beyondtouch",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Touch, 9),
        event(TraceOp::EndTx)}},
      {"beyondrealloc",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Realloc, 4000, 32, 16),
        event(TraceOp::EndTx)}},
      {"beyondmax",
       {event(TraceOp::Free, 4294967295u), event(TraceOp::EndTx)}},
      {"stalesurvivor", StaleTouch},
      {"reallocreuse",
       {event(TraceOp::Alloc, 0, 16), event(TraceOp::Realloc, 0, 32, 16),
        event(TraceOp::Alloc, 0, 8), event(TraceOp::EndTx)}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Path = writeEventTrace(C.Name, C.Events);
    ReplaySetup S{phpBb(), phpConfig(AllocatorKind::DDmalloc), C.StateBytes,
                  ""};
    std::string Fast = expectParity(Path, S);
    // Every stream is rejected, with a diagnostic.
    EXPECT_NE(Fast.find("X\nstatus "), std::string::npos) << Fast;
    EXPECT_EQ(Fast.find("status ok"), std::string::npos) << Fast;
    std::remove(Path.c_str());
  }
}

std::vector<std::string> corpus() {
  std::vector<std::string> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(DDM_TRACES_DIR))
    if (Entry.path().extension() == TraceFileSuffix)
      Paths.push_back(Entry.path().string());
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

TEST(ReplayLoopParityTest, CorpusTracesReplayIdenticallyOnBothPaths) {
  std::vector<std::string> Paths = corpus();
  ASSERT_EQ(Paths.size(), 8u); // one per paper workload
  for (const std::string &Path : Paths) {
    SCOPED_TRACE(Path);
    TraceReplayer Probe;
    ASSERT_TRUE(Probe.open(Path).ok());
    const WorkloadSpec *W = Probe.workload();
    ASSERT_NE(W, nullptr);

    RuntimeConfig Ruby = phpConfig(AllocatorKind::Glibc);
    Ruby.UseBulkFree = false;
    Ruby.LeakFraction = 0.01;
    Ruby.RestartPeriodTx = 3;
    RuntimeConfig Hardened = phpConfig(AllocatorKind::TCMalloc);
    Hardened.AllocOptions.Hardening.Enabled = true;
    for (RuntimeConfig C :
         {phpConfig(AllocatorKind::DDmalloc), Ruby, Hardened}) {
      C.Scale = Probe.meta().Scale;
      std::string Fast =
          expectParity(Path, ReplaySetup{*W, C, W->AppStateBytes, ""});
      EXPECT_NE(Fast.find("E\nstatus ok"), std::string::npos) << Fast;
    }
  }
}

TEST(ReplayLoopParityTest, MidReplayOomFailsIdenticallyOnBothPaths) {
  std::string Path = std::string(DDM_TRACES_DIR) + "/mediawiki-write" +
                     TraceFileSuffix;
  TraceReplayer Probe;
  ASSERT_TRUE(Probe.open(Path).ok());
  const WorkloadSpec *W = Probe.workload();
  ASSERT_NE(W, nullptr);
  RuntimeConfig C = phpConfig(AllocatorKind::DDmalloc);
  C.Scale = Probe.meta().Scale;
  // The 1000th replayed allocation fails, in the second transaction.
  std::string Fast = expectParity(
      Path,
      ReplaySetup{*W, C, W->AppStateBytes, "seed=1,worker_heap:every=1000"});
  EXPECT_NE(Fast.find("exhausted its heap"), std::string::npos) << Fast;
  EXPECT_NE(Fast.find("TX\n"), std::string::npos) << Fast;
}

/// Replays \p Path on both paths from both byte sources and scans it with
/// summarizeTrace from both: every replay must render the same, and every
/// scan must report the replay's diagnostic and totals. The trace must
/// name S's workload, so the scan enforces the same state-area size.
/// Returns the rendering.
std::string expectParityEverywhere(const std::string &Path,
                                   const ReplaySetup &S) {
  std::string First;
  for (TraceReaderKind Kind :
       {TraceReaderKind::Streaming, TraceReaderKind::Mapped}) {
    SCOPED_TRACE(traceReaderKindName(Kind));
    std::string Scan;
    std::string Fast = replayFast(Path, S, Kind, &Scan);
    EXPECT_EQ(Fast, replayGeneric(Path, S, Kind));
    if (First.empty())
      First = Fast;
    EXPECT_EQ(Fast, First);
    TraceSummary Summary;
    TraceStatus St = summarizeTrace(Path, Summary, Kind);
    EXPECT_EQ(renderScan(St, Summary.Total, Summary.Transactions,
                         Summary.Events),
              Scan);
  }
  return First;
}

TraceEvent alignedAlloc(uint32_t Id, uint64_t Size, uint32_t Alignment) {
  TraceEvent E = event(TraceOp::AllocAligned, Id, Size);
  E.Alignment = Alignment;
  return E;
}

TraceEvent stateTouch(uint64_t Offset, bool IsWrite) {
  TraceEvent E = event(TraceOp::StateTouch, 0, Offset);
  E.IsWrite = IsWrite;
  return E;
}

ReplaySetup phpBbSetup() {
  return ReplaySetup{phpBb(), phpConfig(AllocatorKind::DDmalloc),
                     phpBb().AppStateBytes, ""};
}

TEST(ReplayLoopParityTest, VersionTwoAllocationsAgreeOnEveryPath) {
  struct Case {
    const char *Name;
    std::vector<TraceEvent> Events;
    const char *Diagnostic; ///< nullptr: the trace is valid.
  };
  const std::vector<Case> Cases = {
      {"v2mix",
       {event(TraceOp::Calloc, 0, 48), alignedAlloc(1, 100, 64),
        event(TraceOp::Touch, 0), event(TraceOp::Realloc, 1, 300, 100),
        alignedAlloc(2, 32, 4096), event(TraceOp::Free, 0),
        event(TraceOp::Calloc, 3, 8), event(TraceOp::EndTx),
        alignedAlloc(0, 16, 16), event(TraceOp::Touch, 0),
        event(TraceOp::EndTx)},
       nullptr},
      {"v2align48",
       {event(TraceOp::Calloc, 0, 48), alignedAlloc(1, 100, 48),
        event(TraceOp::EndTx)},
       "requests non-power-of-two alignment 48"},
      {"v2align0",
       {alignedAlloc(0, 100, 0), event(TraceOp::EndTx)},
       "requests non-power-of-two alignment 0"},
      {"v2callocreuse",
       {event(TraceOp::Calloc, 0, 48), event(TraceOp::Calloc, 0, 48),
        event(TraceOp::EndTx)},
       "allocation reuses live object id 0"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Path = writeEventTrace(C.Name, C.Events, phpBb().Name);
    std::string Out = expectParityEverywhere(Path, phpBbSetup());
    if (C.Diagnostic) {
      EXPECT_NE(Out.find(C.Diagnostic), std::string::npos) << Out;
    } else {
      EXPECT_NE(Out.find("TTE\nstatus ok"), std::string::npos) << Out;
      // 2 transactions, 11 events; 5 mallocs, of them 2 callocs and 3
      // aligned; 1 free; 1 realloc.
      EXPECT_NE(Out.find("trace 2 11 5 1 1 2 3 "), std::string::npos) << Out;
    }
    std::remove(Path.c_str());
  }
}

/// The stats a correct replay of \p Events counts.
TraceStats statsOf(const std::vector<TraceEvent> &Events) {
  TraceStats S;
  for (const TraceEvent &E : Events) {
    switch (E.Op) {
    case TraceOp::Calloc:
      ++S.Callocs;
      [[fallthrough]];
    case TraceOp::Alloc:
      ++S.Mallocs;
      S.AllocatedBytes += E.Size;
      break;
    case TraceOp::AllocAligned:
      ++S.AlignedAllocs;
      ++S.Mallocs;
      S.AllocatedBytes += E.Size;
      break;
    case TraceOp::Free:
      ++S.Frees;
      break;
    case TraceOp::Realloc:
      ++S.Reallocs;
      break;
    case TraceOp::Touch:
      ++S.ObjectTouches;
      break;
    case TraceOp::Work:
      S.WorkInstructions += E.Size;
      break;
    case TraceOp::StateTouch:
      ++S.StateTouches;
      break;
    case TraceOp::EndTx:
      break;
    }
  }
  return S;
}

/// A trace whose first transaction crosses a frame boundary.
struct Crossing {
  std::vector<TraceEvent> Events;
  size_t LastIndex = 0; ///< Where the block-closing event sits.
  uint32_t NextId = 0;  ///< The first id unused before it.
};

/// One transaction that uses every op, v2 included, over a growing set of
/// live objects, sized so that \p Last is the event that fills the
/// writer's first block: the reader then decodes it in that block's
/// MaxEventBytes tail, through the careful decoder. \p Last may use id
/// NextId. After it the transaction goes on into the second frame, and a
/// short second transaction follows.
Crossing frameCrossing(const TraceEvent &Last) {
  Crossing Out;
  std::vector<TraceEvent> &Events = Out.Events;
  std::vector<uint64_t> SizeOf;
  std::vector<uint32_t> Live;
  TraceEventEncoder Encoder;
  std::string Bytes;
  auto Add = [&](const TraceEvent &E) {
    Events.push_back(E);
    Encoder.encode(E, Bytes);
  };
  auto Alloc = [&](TraceEvent E) {
    E.Id = static_cast<uint32_t>(SizeOf.size());
    SizeOf.push_back(E.Size);
    Live.push_back(E.Id);
    Add(E);
  };
  const uint64_t StateBytes = phpBb().AppStateBytes;
  for (uint32_t I = 0; Bytes.size() < TraceBlockTarget - 4096; ++I) {
    uint32_t Pick = Live.empty() ? 0 : Live[(I * 7) % Live.size()];
    switch (I % 8) {
    case 0:
      Alloc(event(TraceOp::Alloc, 0, 24 + I % 200));
      break;
    case 1:
      Alloc(event(TraceOp::Calloc, 0, 8 + I % 64));
      break;
    case 2:
      Alloc(alignedAlloc(0, 40 + I % 100, 16u << (I % 4)));
      break;
    case 3: {
      TraceEvent E = event(TraceOp::Touch, Pick);
      E.IsWrite = (I & 16) != 0;
      Add(E);
      break;
    }
    case 4:
      Add(stateTouch((uint64_t(I) * 4160) % (StateBytes - 64), I & 32));
      break;
    case 5:
      Add(event(TraceOp::Work, 0, 100 + I % 7));
      break;
    case 6:
      Add(event(TraceOp::Realloc, Pick, SizeOf[Pick] + 8, SizeOf[Pick]));
      SizeOf[Pick] += 8;
      break;
    case 7:
      Add(event(TraceOp::Free, Live.back()));
      Live.pop_back();
      break;
    }
  }
  // Pad with 2-byte work events (an unchanged count encodes a zero delta)
  // until Last closes the block.
  TraceEventEncoder Probe = Encoder;
  std::string LastBytes;
  Probe.encode(Last, LastBytes);
  while (Bytes.size() < TraceBlockTarget - LastBytes.size())
    Add(event(TraceOp::Work, 0, 100));
  EXPECT_LT(Bytes.size(), TraceBlockTarget);
  Out.LastIndex = Events.size();
  Add(Last);
  EXPECT_GE(Bytes.size(), TraceBlockTarget);

  Out.NextId = static_cast<uint32_t>(SizeOf.size());
  uint32_t After = Out.NextId + 1; // Last may have taken NextId
  Add(event(TraceOp::Calloc, After, 64));
  Add(event(TraceOp::Touch, After));
  Add(event(TraceOp::Realloc, After, 128, 64));
  Add(stateTouch(StateBytes - 64, true));
  Add(event(TraceOp::Free, Live.front()));
  Add(alignedAlloc(After + 1, 256, 128));
  Add(event(TraceOp::EndTx));
  Add(event(TraceOp::Alloc, 0, 16));
  Add(event(TraceOp::Work, 0, 5));
  Add(event(TraceOp::EndTx));
  return Out;
}

TEST(ReplayLoopParityTest, FrameCrossingTransactionAgreesOnEveryPath) {
  struct Case {
    const char *Name;
    TraceEvent Last;
    const char *Diagnostic; ///< nullptr: the trace is valid.
  };
  const uint32_t NextId = frameCrossing(event(TraceOp::Work, 0, 100)).NextId;
  const uint64_t StateBytes = phpBb().AppStateBytes;
  const std::vector<Case> Cases = {
      {"crossvalid", alignedAlloc(NextId, 256, 64), nullptr},
      {"crossalign", alignedAlloc(NextId, 256, 96),
       "requests non-power-of-two alignment 96"},
      {"crossfree", event(TraceOp::Free, NextId + 9),
       "free of unknown or already-freed object id"},
      {"crossstate", stateTouch(StateBytes - 32, false),
       "is outside the workload's"},
      {"crossjump", event(TraceOp::Calloc, NextId + 100000, 8),
       "jumps ahead of the transaction's ids"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Crossing Trace = frameCrossing(C.Last);
    std::string Path = writeEventTrace(C.Name, Trace.Events, phpBb().Name);
    std::string Out = expectParityEverywhere(Path, phpBbSetup());
    if (C.Diagnostic) {
      EXPECT_NE(Out.find(C.Diagnostic), std::string::npos) << Out;
      EXPECT_NE(Out.find("X\nstatus "), std::string::npos) << Out;
      // Rejected where it sits: in the first frame, which starts within
      // the file's first 64 bytes (header and meta frame).
      std::unique_ptr<TransactionRuntime> RT = makeRuntime(phpBbSetup());
      TraceReplayer Rep;
      ASSERT_TRUE(Rep.open(Path).ok());
      EXPECT_EQ(Rep.replayTransaction(*RT), TraceReplayer::Step::Error);
      EXPECT_EQ(Rep.status().EventIndex, Trace.LastIndex);
      EXPECT_LT(Rep.status().ByteOffset, 64u);
    } else {
      EXPECT_NE(Out.find("TTE\nstatus ok"), std::string::npos) << Out;
      EXPECT_NE(Out.find(" " + std::to_string(Trace.Events.size()) + " " +
                         render(statsOf(Trace.Events)) + "\n"),
                std::string::npos)
          << Out;
    }
    std::remove(Path.c_str());
  }
}

} // namespace
