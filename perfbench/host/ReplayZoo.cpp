//===- perfbench/host/ReplayZoo.cpp - The trace-replay workload -----------===//
///
/// \file
/// replay-zoo: set-up records one trace per workload (the six PHP
/// applications in PHP mode, rails in Ruby mode) and validates it; the
/// timed phase replays those traces with no sink through every zoo
/// allocator, plus hardened and buddy-backed variants of a few. A round
/// gives every (variant, trace) pair one turn, and a turn replays the
/// whole trace, so every round does the same work; each pass must
/// reproduce the recording generator's TraceStats exactly.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "page/PageBackend.h"
#include "trace/TraceReplayer.h"

#include <algorithm>
#include <memory>

using namespace ddm;
using namespace perfbench;

namespace {

constexpr unsigned TraceTx = 8;
constexpr int SetupRepeats = 3;

struct Variant {
  AllocatorKind Kind;
  bool Harden;
  bool Buddy;
  bool Ruby; ///< Also replays the rails trace in Ruby mode.
};

std::vector<Variant> variants() {
  std::vector<Variant> V;
  std::vector<AllocatorKind> RubyKinds = rubyStudyAllocatorKinds();
  auto InRuby = [&](AllocatorKind K) {
    return std::find(RubyKinds.begin(), RubyKinds.end(), K) != RubyKinds.end();
  };
  for (AllocatorKind K : allAllocatorKinds())
    V.push_back({K, false, false, InRuby(K)});
  for (AllocatorKind K :
       {AllocatorKind::DDmalloc, AllocatorKind::Default, AllocatorKind::TCMalloc})
    V.push_back({K, true, false, InRuby(K)});
  for (AllocatorKind K :
       {AllocatorKind::Region, AllocatorKind::Default, AllocatorKind::Glibc})
    V.push_back({K, false, true, InRuby(K)});
  return V;
}

/// One recorded trace and the generator statistics it must replay to.
struct Recorded {
  WorkloadSpec Spec;
  bool Ruby;
  std::string Path;
  TraceStats Stats;
};

/// A (variant, trace) pair and the variant's runtime for that mode.
struct Pair {
  size_t Variant;
  size_t Trace;
  TransactionRuntime *RT;
};

struct Zoo {
  std::vector<Variant> Variants = variants();
  std::vector<Recorded> Traces;
  std::vector<std::unique_ptr<TransactionRuntime>> Runtimes;
  std::vector<Pair> Pairs;
  int64_t EncodeNs = 0;
  uint64_t EncodedEvents = 0;
};

RuntimeConfig variantConfig(const Variant &V, bool Ruby, uint64_t Seed) {
  RuntimeConfig C = Ruby ? rubyConfig(V.Kind, Seed, WorkloadScale)
                         : phpConfig(V.Kind, Seed, WorkloadScale);
  C.AllocOptions.Hardening.Enabled = V.Harden;
  if (V.Buddy)
    C.AllocOptions.Backend = createBuddyBackend(1ull << 30);
  return C;
}

/// Records and validates the traces and builds the runtimes and pairs.
void setup(Zoo &Z, const Options &O, Result &R) {
  Z.Pairs.clear();
  Z.Runtimes.clear();
  Z.Traces.clear();
  std::vector<WorkloadSpec> Php = phpWorkloads();
  Php.resize(6);
  for (size_t I = 0; I < Php.size(); ++I)
    Z.Traces.push_back({Php[I], false, "", {}});
  Z.Traces.push_back({railsApp(), true, "", {}});
  WorkloadSpec Largest = Php[0];
  for (const WorkloadSpec &W : Php)
    if (W.AppStateBytes > Largest.AppStateBytes)
      Largest = W;

  for (size_t I = 0; I < Z.Traces.size(); ++I) {
    Recorded &T = Z.Traces[I];
    T.Path = O.OutDir + "/replay-" + T.Spec.Name + ".ddmtrc";
    RuntimeConfig C =
        T.Ruby ? rubyConfig(AllocatorKind::Glibc, O.Seed, WorkloadScale)
               : phpConfig(AllocatorKind::DDmalloc, O.Seed, WorkloadScale);
    C.RngStream = I;
    std::optional<TraceStats> Stats =
        recordTrace(T.Spec, C, TraceTx, T.Path, Z.EncodeNs, Z.EncodedEvents);
    R.check(Stats.has_value(), "replay-zoo: cannot record " + T.Path);
    T.Stats = Stats.value_or(TraceStats());
    TraceSummary Sum;
    bool Valid = summarizeTrace(T.Path, Sum).ok();
    R.check(Valid && Sum.Transactions == TraceTx && sameStats(Sum.Total, T.Stats),
            "replay-zoo: recorded trace " + T.Path + " does not validate");
  }

  for (size_t V = 0; V < Z.Variants.size(); ++V)
    for (bool Ruby : {false, true}) {
      if (Ruby && !Z.Variants[V].Ruby)
        continue;
      Z.Runtimes.push_back(std::make_unique<TransactionRuntime>(
          Ruby ? railsApp() : Largest,
          variantConfig(Z.Variants[V], Ruby, O.Seed)));
      for (size_t T = 0; T < Z.Traces.size(); ++T)
        if (Z.Traces[T].Ruby == Ruby)
          Z.Pairs.push_back({V, T, Z.Runtimes.back().get()});
    }
}

LayerInputs inputs(const Zoo &Z, const Options &O) {
  LayerInputs In{{}, O.Seed, WorkloadScale, O.OutDir};
  for (const Recorded &T : Z.Traces)
    In.Specs.push_back(T.Spec);
  return In;
}

/// Host start and end (ns) of one replayed transaction.
using Interval = std::pair<int64_t, int64_t>;

/// Replays the whole trace of \p P and checks the pass; appends each
/// transaction's interval to \p Txs.
void pass(Zoo &Z, const Pair &P, const Options &O, Result &R,
          std::vector<Interval> &Txs) {
  const Recorded &T = Z.Traces[P.Trace];
  P.RT->setWorkload(T.Spec);
  TraceReplayer Rep;
  if (!Rep.open(T.Path).ok()) {
    R.check(false, "replay-zoo: cannot open " + T.Path);
    return;
  }
  while (true) {
    int64_t T0 = nowNs();
    TraceReplayer::Step S = Rep.replayTransaction(*P.RT);
    int64_t T1 = nowNs();
    if (S == TraceReplayer::Step::End)
      break;
    bool Ok = S == TraceReplayer::Step::Tx &&
              P.RT->lastOutcome().Status == TxStatus::Ok;
    if (!T.Ruby)
      Ok = Ok && P.RT->allocator().stats().UsableBytesLive == 0;
    R.check(Ok, "replay-zoo: replay of " + T.Path + " failed: " +
                    Rep.status().describe());
    if (S != TraceReplayer::Step::Tx)
      return;
    Txs.push_back({T0, T1});
  }
  TraceStats Want = T.Stats;
  if (O.Tamper == "counter")
    ++Want.Mallocs;
  R.check(Rep.transactionsReplayed() == TraceTx &&
              sameStats(Rep.totalStats(), Want),
          "replay-zoo: replay of " + T.Path +
              " does not reproduce the recorded TraceStats");
}

/// Warm-up: one pass per runtime (its first pair), which grows every heap
/// once; the timed phase reports the fast end of its rounds, so what is
/// still cold at the start does not move it.
void warmUp(Zoo &Z, const Options &O, Result &R) {
  std::vector<Interval> Txs;
  const TransactionRuntime *Last = nullptr;
  for (const Pair &P : Z.Pairs)
    if (P.RT != Last) {
      pass(Z, P, O, R, Txs);
      Last = P.RT;
    }
}

Result untraced(const Options &O) {
  Result R;
  Zoo Z;
  std::vector<double> SetupSec;
  std::vector<Interval> Txs;
  for (int I = 0; I < SetupRepeats; ++I) {
    int64_t T0 = nowNs();
    setup(Z, O, R);
    warmUp(Z, O, R);
    SetupSec.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  Rounds Rs;
  int64_t Start = nowNs();
  do {
    std::vector<int64_t> Ns;
    for (const Pair &P : Z.Pairs) {
      Txs.clear();
      pass(Z, P, O, R, Txs);
      for (auto [T0, T1] : Txs)
        Ns.push_back(T1 - T0);
    }
    Rs.add(Ns);
  } while (static_cast<double>(nowNs() - Start) / 1e9 < O.Seconds);
  setEndToEnd(R, SetupSec, Rs);
  R.InputDigest = inputDigest(inputs(Z, O));
  return R;
}

/// The traced run: pairs alternate untimed passes with passes whose
/// transactions are recorded as spans; each round also times a decode-only
/// and a decode+validate pass over the traces, so runtime time is replay
/// time minus trace time.
Result traced(const Options &O) {
  Result R;
  Zoo Z;
  setup(Z, O, R);
  warmUp(Z, O, R);
  std::vector<Interval> Txs;

  std::vector<std::string> Paths;
  for (const Recorded &T : Z.Traces)
    Paths.push_back(T.Path);

  SpanLog Spans;
  uint64_t TxId = 0, BareTx = 0, Ops = 0, PlainTx = 0, TracedTx = 0;
  int64_t PlainNs = 0, TracedNs = 0, BareNs = 0;
  // Host ns per variant over untimed passes, for the hardened/buddy twins.
  std::vector<int64_t> VariantNs(Z.Variants.size(), 0);
  std::vector<double> Decode, Validate;
  int64_t Start = nowNs();
  for (unsigned Round = 0;
       Round == 0 || static_cast<double>(nowNs() - Start) / 1e9 < O.Seconds * 0.6;
       ++Round) {
    int32_t Id = Spans.begin("trace.read", Round);
    R.check(timeTraceReads(Paths, Decode, Validate),
            "replay-zoo: a recorded trace does not read back");
    Spans.end(Id);
    for (const Pair &P : Z.Pairs) {
      const Variant &V = Z.Variants[P.Variant];
      for (int Half = 0; Half < 2; ++Half) {
        Txs.clear();
        if ((Half == 0) != (Round % 2 == 0)) {
          pass(Z, P, O, R, Txs);
          for (auto [T0, T1] : Txs) {
            VariantNs[P.Variant] += T1 - T0;
            PlainNs += T1 - T0;
          }
          PlainTx += Txs.size();
          continue;
        }
        AllocatorStats Before = P.RT->allocator().stats();
        int32_t Pass = Spans.begin("pass", TxId);
        pass(Z, P, O, R, Txs);
        Spans.end(Pass);
        // The pass's self time is opening the trace and checking it.
        for (auto [T0, T1] : Txs) {
          Spans.folded("replay", TxId++, Pass, T0, T1, T1 - T0, 1);
          TracedNs += T1 - T0;
        }
        TracedTx += Txs.size();
        if (V.Harden || V.Buddy)
          continue;
        const AllocatorStats &After = P.RT->allocator().stats();
        Ops += allocatorCalls(After) - allocatorCalls(Before);
        for (auto [T0, T1] : Txs)
          BareNs += T1 - T0;
        BareTx += Txs.size();
      }
    }
  }

  // Wrapped variants against their bare twins (same kind, same traces).
  auto Overhead = [&](bool Harden) {
    double Wrapped = 0, Bare = 0;
    for (size_t V = 0; V < Z.Variants.size(); ++V) {
      const Variant &W = Z.Variants[V];
      if (Harden ? !W.Harden : !W.Buddy)
        continue;
      for (size_t B = 0; B < Z.Variants.size(); ++B)
        if (Z.Variants[B].Kind == W.Kind && !Z.Variants[B].Harden &&
            !Z.Variants[B].Buddy) {
          Wrapped += static_cast<double>(VariantNs[V]);
          Bare += static_cast<double>(VariantNs[B]);
        }
    }
    return Wrapped / Bare - 1.0;
  };

  LayerInputs In = inputs(Z, O);
  std::string SpanPath = O.OutDir + "/spans-replay-zoo.jsonl";
  R.check(Spans.write(SpanPath), "replay-zoo: cannot write " + SpanPath);
  uint64_t Events = 0;
  for (const std::string &P : Paths) {
    TraceSummary Sum;
    if (summarizeTrace(P, Sum).ok())
      Events += Sum.Events;
  }
  double EventsPerTx = static_cast<double>(Events) /
                       static_cast<double>(TraceTx * Paths.size());
  double TraceUsPerTx = (median(Decode) + median(Validate)) * EventsPerTx / 1e3;
  Z.Pairs.clear();
  Z.Runtimes.clear();

  runProbes(In, {Layer::HardenPage, Layer::Trace}, R);
  R.InputDigest = inputDigest(In);
  R.set("trace.encode_ns_per_event", "ns",
        static_cast<double>(Z.EncodeNs) /
            static_cast<double>(Z.EncodedEvents));
  R.set("trace.decode_ns_per_event", "ns", median(Decode), Decode);
  R.set("trace.validate_ns_per_event", "ns", median(Validate), Validate);
  R.set("hardening.overhead_frac", "ratio", Overhead(true));
  R.set("page.buddy_overhead_frac", "ratio", Overhead(false));
  R.set("runtime.us_per_tx", "us",
        static_cast<double>(BareNs) / 1e3 / static_cast<double>(BareTx) -
            TraceUsPerTx);
  R.set("core.ops_per_tx", "count",
        static_cast<double>(Ops) / static_cast<double>(BareTx));
  R.set("bench.trace_overhead_frac", "ratio",
        (static_cast<double>(TracedNs) / static_cast<double>(TracedTx)) /
                (static_cast<double>(PlainNs) / static_cast<double>(PlainTx)) -
            1.0);
  return R;
}

} // namespace

Result perfbench::runReplayZoo(const Options &O) {
  return O.Trace ? traced(O) : untraced(O);
}
