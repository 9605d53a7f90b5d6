//===- perfbench/host/Layers.cpp - Per-layer probes -----------------------===//

#include "Layers.h"

#include "page/PageBackend.h"
#include "sampling/AccessSampler.h"
#include "sim/Platform.h"
#include "sim/SimSink.h"
#include "trace/TraceInput.h"
#include "trace/TraceRecorder.h"
#include "trace/TraceReplayer.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sys/resource.h>

using namespace ddm;
using namespace perfbench;

//===----------------------------------------------------------------------===//
// Shared vocabulary
//===----------------------------------------------------------------------===//

namespace {

int64_t coveredNs(const SpanLog::Span &S) {
  return S.BusyNs >= 0 ? S.BusyNs : S.End - S.Start;
}

} // namespace

std::map<std::string, double> SpanLog::selfNsByName() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += coveredNs(S);
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += static_cast<double>(coveredNs(Spans[I]) - ChildNs[I]);
  return Out;
}

std::map<std::string, uint64_t> SpanLog::countByName() const {
  std::map<std::string, uint64_t> Out;
  for (const Span &S : Spans)
    ++Out[S.Name];
  return Out;
}

bool SpanLog::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  int64_t Origin = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"tx\":%llu,\"busy_ns\":%lld,\"calls\":%llu}\n",
                 I, S.Name, static_cast<long long>(S.Start - Origin),
                 static_cast<long long>(S.End - Origin), S.Parent,
                 static_cast<unsigned long long>(S.Tx),
                 static_cast<long long>(coveredNs(S)),
                 static_cast<unsigned long long>(S.Calls));
  }
  return std::fclose(F) == 0;
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

void Rounds::add(const std::vector<int64_t> &TxNs) {
  int64_t Sum = 0;
  std::vector<double> Ms;
  for (int64_t Ns : TxNs) {
    Sum += Ns;
    Ms.push_back(ms(Ns));
  }
  TxMs.push_back(std::move(Ms));
  Rates.push_back(static_cast<double>(TxNs.size()) /
                  (static_cast<double>(Sum) / 1e9));
}

void perfbench::setEndToEnd(Result &R, const std::vector<double> &SetupSec,
                            const Rounds &Rs) {
  constexpr size_t BlockTx = 1000;
  std::vector<double> All, Block, P50, P99;
  // Rounds left over after the last full block count in the summary only.
  for (const std::vector<double> &Round : Rs.TxMs) {
    Block.insert(Block.end(), Round.begin(), Round.end());
    All.insert(All.end(), Round.begin(), Round.end());
    if (Block.size() < BlockTx)
      continue;
    std::sort(Block.begin(), Block.end());
    P50.push_back(*percentile(Block, 0.5));
    P99.push_back(*percentile(Block, 0.99));
    Block.clear();
  }
  // Interference from the rest of the host only ever slows a round down,
  // so the fast end of the rounds and blocks estimates the program's own
  // speed best: the 90th percentile of round rates, the 10th of block
  // percentiles.
  auto FastEnd = [](std::vector<double> V, double Q) {
    std::sort(V.begin(), V.end());
    return V.empty() ? 0.0 : quantile(V, Q);
  };
  R.set("setup_s", "s", median(SetupSec), SetupSec);
  R.set("tx_per_s", "1/s", FastEnd(Rs.Rates, 0.9), Rs.Rates);
  R.set("tx_p50_ms", "ms", FastEnd(P50, 0.1), All);
  R.set("tx_p99_ms", "ms", FastEnd(P99, 0.1), All);
  R.Notes["percentile_blocks"] = static_cast<double>(P99.size());
  R.check(!P99.empty(), "fewer than 1000 measured transactions");
}

RuntimeConfig perfbench::phpConfig(AllocatorKind Kind, uint64_t Seed,
                                   double Scale) {
  RuntimeConfig C;
  C.Kind = Kind;
  C.UseBulkFree = allocatorSupportsBulkFree(Kind);
  // Without bulk free the end-of-transaction sweep frees every object, so
  // live bytes return to zero after each transaction either way.
  C.LeakFraction = 0.0;
  C.Scale = Scale;
  C.Seed = Seed;
  C.AllocOptions.ProcessId = static_cast<uint32_t>(Seed % 64);
  return C;
}

RuntimeConfig perfbench::rubyConfig(AllocatorKind Kind, uint64_t Seed,
                                    double Scale) {
  RuntimeConfig C = phpConfig(Kind, Seed, Scale);
  C.UseBulkFree = false;
  C.LeakFraction = 0.01;
  C.RestartPeriodTx = 20;
  return C;
}

bool perfbench::sameStats(const TraceStats &A, const TraceStats &B) {
  return A.Mallocs == B.Mallocs && A.Frees == B.Frees &&
         A.Reallocs == B.Reallocs && A.Callocs == B.Callocs &&
         A.AlignedAllocs == B.AlignedAllocs &&
         A.AllocatedBytes == B.AllocatedBytes &&
         A.ObjectTouches == B.ObjectTouches &&
         A.StateTouches == B.StateTouches &&
         A.WorkInstructions == B.WorkInstructions;
}

//===----------------------------------------------------------------------===//
// Allocation-call streams
//===----------------------------------------------------------------------===//

namespace {

/// Keeps the allocation calls of generated transactions, drops the rest.
class OpRecorder final : public TxExecutor {
public:
  explicit OpRecorder(std::vector<Op> &Out) : Ops(Out) {}
  void onAlloc(uint32_t Id, size_t Size) override {
    Ops.push_back({Op::Alloc, Id, Size, 0});
  }
  void onFree(uint32_t Id) override { Ops.push_back({Op::Free, Id, 0, 0}); }
  void onRealloc(uint32_t Id, size_t Old, size_t New) override {
    Ops.push_back({Op::Realloc, Id, New, Old});
  }
  void onTouch(uint32_t, bool) override {}
  void onWork(uint64_t) override {}
  void onStateTouch(uint64_t, bool) override {}

private:
  std::vector<Op> &Ops;
};

} // namespace

std::vector<Op> perfbench::recordOps(const LayerInputs &In,
                                     unsigned TxPerSpec) {
  std::vector<Op> Ops;
  for (size_t S = 0; S < In.Specs.size(); ++S) {
    Rng R(In.Seed, S);
    OpRecorder Rec(Ops);
    for (unsigned T = 0; T < TxPerSpec; ++T) {
      runTransaction(In.Specs[S], In.Scale, R, Rec);
      Ops.push_back({Op::EndTx, 0, 0, 0});
    }
  }
  return Ops;
}

std::string perfbench::inputDigest(const LayerInputs &In) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const Op &O : recordOps(In, 1))
    for (uint64_t V : {uint64_t(O.K), uint64_t(O.Id), O.Size, O.OldSize}) {
      H ^= V;
      H *= 0x100000001b3ull;
    }
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx", static_cast<unsigned long long>(H));
  return Hex;
}

OpReplay perfbench::replayOps(const std::vector<Op> &Ops, AllocatorKind Kind,
                              const AllocatorOptions &Options) {
  std::unique_ptr<TxAllocator> A = createAllocator(Kind, Options);
  bool Bulk = allocatorSupportsBulkFree(Kind);
  std::vector<void *> Ptrs;
  OpReplay Out;
  bool Oom = false;
  int64_t T0 = nowNs();
  for (const Op &O : Ops) {
    if (O.Id >= Ptrs.size())
      Ptrs.resize(O.Id + 1, nullptr);
    switch (O.K) {
    case Op::Alloc:
      Ptrs[O.Id] = A->allocate(O.Size);
      Oom |= Ptrs[O.Id] == nullptr;
      break;
    case Op::Free:
      A->deallocate(Ptrs[O.Id]);
      Ptrs[O.Id] = nullptr;
      break;
    case Op::Realloc:
      Ptrs[O.Id] = A->reallocate(Ptrs[O.Id], O.OldSize, O.Size);
      Oom |= Ptrs[O.Id] == nullptr;
      break;
    case Op::EndTx:
      if (Bulk) {
        A->freeAll();
        ++Out.Calls;
      } else {
        for (void *&P : Ptrs)
          if (P) {
            A->deallocate(P);
            ++Out.Calls;
          }
      }
      std::fill(Ptrs.begin(), Ptrs.end(), nullptr);
      ++Out.Tx;
      if (Oom || A->stats().UsableBytesLive != 0)
        ++Out.BadTx;
      Oom = false;
      continue;
    }
    ++Out.Calls;
  }
  Out.Ns = nowNs() - T0;
  return Out;
}

//===----------------------------------------------------------------------===//
// Probes
//===----------------------------------------------------------------------===//

namespace {

constexpr int Repeats = 5;

/// workload.gen_us_per_tx, runtime.us_per_tx and core.ops_per_tx: the
/// same transactions generated alone, then executed with no sink.
void probeGenRuntime(const LayerInputs &In, Result &R) {
  constexpr unsigned Tx = 6;
  std::vector<std::unique_ptr<TransactionRuntime>> Runtimes;
  for (size_t S = 0; S < In.Specs.size(); ++S) {
    RuntimeConfig C = phpConfig(AllocatorKind::DDmalloc, In.Seed, In.Scale);
    C.RngStream = S;
    Runtimes.push_back(std::make_unique<TransactionRuntime>(In.Specs[S], C));
    Runtimes.back()->executeTransaction(); // warm-up
  }
  std::vector<double> Gen, Run;
  uint64_t Calls = 0, Txs = 0;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    int64_t GenNs = 0, RunNs = 0;
    for (size_t S = 0; S < In.Specs.size(); ++S) {
      Rng G(In.Seed, S);
      NullExecutor Null;
      int64_t T0 = nowNs();
      for (unsigned T = 0; T < Tx; ++T)
        runTransaction(In.Specs[S], In.Scale, G, Null);
      int64_t T1 = nowNs();
      TransactionRuntime &RT = *Runtimes[S];
      AllocatorStats Before = RT.allocator().stats();
      for (unsigned T = 0; T < Tx; ++T) {
        TxStatus St = RT.executeTransaction();
        R.check(St == TxStatus::Ok && RT.allocator().stats().UsableBytesLive == 0,
                "runtime probe: transaction failed or left live bytes");
      }
      RunNs += nowNs() - T1;
      GenNs += T1 - T0;
      const AllocatorStats &After = RT.allocator().stats();
      Calls += allocatorCalls(After) - allocatorCalls(Before);
      Txs += Tx;
    }
    double N = static_cast<double>(Tx * In.Specs.size());
    Gen.push_back(static_cast<double>(GenNs) / 1e3 / N);
    Run.push_back(static_cast<double>(RunNs - GenNs) / 1e3 / N);
  }
  R.set("workload.gen_us_per_tx", "us", median(Gen), Gen);
  R.set("runtime.us_per_tx", "us", median(Run), Run);
  R.set("core.ops_per_tx", "count",
        static_cast<double>(Calls) / static_cast<double>(Txs));
}

/// core.<kind>.ns_per_op for every zoo member, rounds interleaved.
void probeCore(const LayerInputs &In, Result &R) {
  std::vector<Op> Ops = recordOps(In, 3);
  std::map<AllocatorKind, std::vector<double>> Ns;
  for (int Rep = 0; Rep < Repeats; ++Rep)
    for (AllocatorKind K : allAllocatorKinds()) {
      OpReplay Out = replayOps(Ops, K, AllocatorOptions());
      R.check(Out.BadTx == 0, std::string("core probe: ") +
                                   allocatorKindName(K) +
                                   " left live bytes or ran out of memory");
      Ns[K].push_back(static_cast<double>(Out.Ns) /
                      static_cast<double>(Out.Calls));
    }
  for (auto &[K, V] : Ns)
    R.set(std::string("core.") + allocatorKindName(K) + ".ns_per_op", "ns",
          median(V), V);
}

/// hardening.overhead_frac and page.buddy_overhead_frac on replayed
/// allocation calls: wrapped time over bare time, minus one.
void probeHardenPage(const LayerInputs &In, Result &R) {
  std::vector<Op> Ops = recordOps(In, 3);
  const AllocatorKind HardenKinds[] = {AllocatorKind::DDmalloc,
                                       AllocatorKind::Default,
                                       AllocatorKind::TCMalloc};
  const AllocatorKind BuddyKinds[] = {AllocatorKind::Region,
                                      AllocatorKind::Default,
                                      AllocatorKind::Glibc};
  std::vector<double> Harden, Buddy;
  auto Timed = [&](AllocatorKind K, const AllocatorOptions &O) {
    OpReplay Out = replayOps(Ops, K, O);
    R.check(Out.BadTx == 0, std::string("harden/page probe: ") +
                                allocatorKindName(K) + " left live bytes");
    return static_cast<double>(Out.Ns);
  };
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    double Bare = 0, Wrapped = 0;
    for (AllocatorKind K : HardenKinds) {
      AllocatorOptions H;
      H.Hardening.Enabled = true;
      Bare += Timed(K, AllocatorOptions());
      Wrapped += Timed(K, H);
    }
    Harden.push_back(Wrapped / Bare - 1.0);
    Bare = Wrapped = 0;
    for (AllocatorKind K : BuddyKinds) {
      AllocatorOptions B;
      B.Backend = createBuddyBackend(1ull << 30);
      Bare += Timed(K, AllocatorOptions());
      Wrapped += Timed(K, B);
    }
    Buddy.push_back(Wrapped / Bare - 1.0);
  }
  R.set("hardening.overhead_frac", "ratio", median(Harden), Harden);
  R.set("page.buddy_overhead_frac", "ratio", median(Buddy), Buddy);
}

/// Keeps every teed event in memory so encoding can be timed alone.
class CaptureSink final : public TraceSink {
public:
  void event(const TraceEvent &E) override { Events.push_back(E); }
  std::vector<TraceEvent> Events;
};

} // namespace

namespace perfbench {

std::optional<TraceStats> recordTrace(const WorkloadSpec &Spec,
                                      const RuntimeConfig &Config, unsigned Tx,
                                      const std::string &Path,
                                      int64_t &EncodeNs, uint64_t &Events) {
  CaptureSink Capture;
  TransactionRuntime RT(Spec, Config);
  RT.attachTraceSink(&Capture);
  for (unsigned T = 0; T < Tx; ++T)
    RT.executeTransaction();
  TraceRecorder Rec;
  TraceMeta Meta{Spec.Name, Config.Scale, Config.Seed};
  if (!Rec.open(Path, Meta))
    return std::nullopt;
  int64_t T0 = nowNs();
  for (const TraceEvent &E : Capture.Events)
    Rec.event(E);
  bool Ok = static_cast<bool>(Rec.finish());
  EncodeNs += nowNs() - T0;
  Events += Capture.Events.size();
  if (!Ok)
    return std::nullopt;
  return RT.metrics().TotalTrace;
}

bool timeTraceReads(const std::vector<std::string> &Paths,
                    std::vector<double> &DecodeNs,
                    std::vector<double> &ValidateNs) {
  int64_t Decode = 0, Validate = 0;
  uint64_t Events = 0;
  for (const std::string &Path : Paths) {
    TraceStatus St;
    int64_t T0 = nowNs();
    std::unique_ptr<TraceInput> In =
        openTraceInput(Path, TraceReaderKind::Auto, St);
    if (!In)
      return false;
    TraceEventSpan Span;
    uint64_t N = 0;
    TraceInput::Next Next;
    while ((Next = In->nextBatch(Span)) == TraceInput::Next::Event)
      N += Span.Size;
    if (Next == TraceInput::Next::Error)
      return false;
    int64_t T1 = nowNs();
    TraceReplayer Rep;
    if (!Rep.open(Path))
      return false;
    const WorkloadSpec *Spec = Rep.workload();
    NullExecutor Null;
    TraceReplayer::Step S;
    do {
      TraceStats Stats;
      S = Rep.replayTransactionInto(Null, Stats, Spec->AppStateBytes);
    } while (S == TraceReplayer::Step::Tx);
    if (S == TraceReplayer::Step::Error || Rep.eventsReplayed() != N)
      return false;
    Decode += T1 - T0;
    Validate += nowNs() - T1;
    Events += N;
  }
  double E = static_cast<double>(Events);
  DecodeNs.push_back(static_cast<double>(Decode) / E);
  ValidateNs.push_back(static_cast<double>(Validate - Decode) / E);
  return true;
}

} // namespace perfbench

namespace {

/// trace.*: records a few transactions per spec, then reads them back.
void probeTrace(const LayerInputs &In, Result &R) {
  std::vector<std::string> Paths;
  int64_t EncodeNs = 0;
  uint64_t Events = 0;
  for (size_t S = 0; S < In.Specs.size(); ++S) {
    std::string Path = In.OutDir + "/probe-" + In.Specs[S].Name + ".ddmtrc";
    RuntimeConfig C = phpConfig(AllocatorKind::DDmalloc, In.Seed, In.Scale);
    C.RngStream = S;
    R.check(recordTrace(In.Specs[S], C, 4, Path, EncodeNs, Events).has_value(),
            "trace probe: cannot write " + Path);
    Paths.push_back(Path);
  }
  std::vector<double> Decode, Validate;
  for (int Rep = 0; Rep < Repeats; ++Rep)
    R.check(timeTraceReads(Paths, Decode, Validate),
            "trace probe: a recorded trace does not read back");
  R.set("trace.encode_ns_per_event", "ns",
        static_cast<double>(EncodeNs) / static_cast<double>(Events));
  R.set("trace.decode_ns_per_event", "ns", median(Decode), Decode);
  R.set("trace.validate_ns_per_event", "ns", median(Validate), Validate);
  for (const std::string &P : Paths)
    std::remove(P.c_str());
}

/// sim.* and sampling.overhead_frac: each spec on the Xeon model through a
/// timed tee, with and without the sampler in front of the model.
void probeSim(const LayerInputs &In, Result &R) {
  struct Point {
    std::unique_ptr<SimSink> Model;
    std::unique_ptr<AccessSampler> Sampler;
    std::unique_ptr<TimedSink> Tee;
    std::unique_ptr<TransactionRuntime> RT;
  };
  Platform P = xeonLike();
  std::vector<Point> Points;
  for (size_t S = 0; S < In.Specs.size(); ++S)
    for (bool Sampled : {false, true}) {
      Point Pt;
      Pt.Model = std::make_unique<SimSink>(P, P.Cores);
      AccessSink *Down = Pt.Model.get();
      if (Sampled) {
        Pt.Sampler = std::make_unique<AccessSampler>(Down);
        Down = Pt.Sampler.get();
      }
      Pt.Tee = std::make_unique<TimedSink>(*Down);
      RuntimeConfig C = phpConfig(AllocatorKind::DDmalloc, In.Seed, In.Scale);
      C.RngStream = S;
      Pt.RT = std::make_unique<TransactionRuntime>(In.Specs[S], C, Pt.Tee.get());
      Pt.RT->executeTransaction(); // warm-up
      Pt.Tee->flush();
      Pt.Tee->setTiming(true);
      Pt.Tee->take();
      Points.push_back(std::move(Pt));
    }
  std::vector<double> SelfUs, NsPerLine, Overhead;
  uint64_t Events = 0, Calls = 0;
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    int64_t Plain = 0, Sampled = 0, Busy = 0;
    uint64_t Lines = 0, Tx = 0;
    for (Point &Pt : Points) {
      uint64_t L0 = Pt.Model->totalEvents().LineAccesses;
      int64_t T0 = nowNs();
      TxStatus St = Pt.RT->executeTransaction();
      Pt.Tee->flush();
      int64_t Ns = nowNs() - T0;
      R.check(St == TxStatus::Ok &&
                  Pt.RT->allocator().stats().UsableBytesLive == 0,
              "sim probe: transaction failed or left live bytes");
      TimedSink::Window W = Pt.Tee->take();
      Events += W.Events;
      Calls += W.Calls;
      if (Pt.Sampler) {
        Sampled += Ns;
        continue;
      }
      Plain += Ns;
      Busy += W.Busy;
      Lines += Pt.Model->totalEvents().LineAccesses - L0;
      ++Tx;
    }
    SelfUs.push_back(static_cast<double>(Busy) / 1e3 / static_cast<double>(Tx));
    NsPerLine.push_back(static_cast<double>(Busy) / static_cast<double>(Lines));
    Overhead.push_back(static_cast<double>(Sampled) /
                           static_cast<double>(Plain) -
                       1.0);
  }
  R.set("sim.self_us_per_tx", "us", median(SelfUs), SelfUs);
  R.set("sim.ns_per_line_access", "ns", median(NsPerLine), NsPerLine);
  R.set("sim.events_per_batch", "count",
        static_cast<double>(Events) / static_cast<double>(Calls));
  R.set("sampling.overhead_frac", "ratio", median(Overhead), Overhead);
}

/// exec.*: a short native run of the inputs as a uniform mix.
void probeExec(const LayerInputs &In, Result &R) {
  ExecPlan Plan;
  Plan.Mix = In.Specs;
  Plan.Weights.assign(In.Specs.size(), 1.0);
  Plan.Seed = In.Seed;
  Plan.Scale = In.Scale;
  Plan.SaturationWindowSec = 0.3;
  Plan.OpenWindowSec = 0.6;
  uint64_t Bad = 0;
  std::vector<double> Service = serviceTimesMs(Plan, 60, Bad);
  ExecMeasure M = measureExec(Plan, 1.0);
  R.check(Bad == 0 && M.Aborted == 0 && M.Completed == M.Attempted,
          "exec probe: a native transaction failed");
  setExecMetrics(M, Service, R);
}

} // namespace

void perfbench::runProbes(const LayerInputs &In,
                          const std::set<Layer> &Measured, Result &R) {
  auto Want = [&](Layer L) { return !Measured.count(L); };
  if (Want(Layer::GenRuntime))
    probeGenRuntime(In, R);
  if (Want(Layer::Core))
    probeCore(In, R);
  if (Want(Layer::HardenPage))
    probeHardenPage(In, R);
  if (Want(Layer::Trace))
    probeTrace(In, R);
  if (Want(Layer::Sim))
    probeSim(In, R);
  if (Want(Layer::Exec))
    probeExec(In, R);
}
