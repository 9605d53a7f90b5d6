//===- perfbench/host/SimSweep.cpp - The fig05/fig07 sweep workload -------===//
///
/// \file
/// sim-sweep: the six PHP workloads x the PHP-study trio through
/// TransactionRuntime -> SimSink on the Xeon model (prefetcher on) and the
/// Niagara model (32 threads share the L2), plus a few configurations with
/// the access sampler in front of the model. One thread; every
/// configuration stays live for the whole run and they take turns in
/// chunks of eight transactions, so a slow stretch of the host is spread
/// over all of them while each turn still runs mostly cache-warm. Only whole rounds are timed, so each run weighs the
/// configurations equally.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "sampling/AccessSampler.h"
#include "sim/Platform.h"
#include "sim/SimSink.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

using namespace ddm;
using namespace perfbench;

namespace {

constexpr unsigned WarmupTx = 1;
constexpr unsigned ChunkTx = 8;
constexpr int SetupRepeats = 5;
/// The seed whose post-warm-up counters are pinned in the digest file.
constexpr uint64_t DigestSeed = 0x5eed;

struct ConfigSpec {
  Platform P;
  size_t Workload; ///< Index into phpSix().
  AllocatorKind Kind;
  bool Sampled;
};

/// The PHP applications of the main study (SPECweb2005 is left out).
std::vector<WorkloadSpec> phpSix() {
  std::vector<WorkloadSpec> W = phpWorkloads();
  W.resize(6);
  return W;
}

std::vector<ConfigSpec> grid() {
  std::vector<ConfigSpec> G;
  for (const Platform &P : {xeonLike(), niagaraLike()})
    for (size_t W = 0; W < 6; ++W)
      for (AllocatorKind K : phpStudyAllocatorKinds())
        G.push_back({P, W, K, false});
  // Sampled twins of four unsampled points (sampling.overhead_frac).
  G.push_back({xeonLike(), 0, AllocatorKind::DDmalloc, true});
  G.push_back({xeonLike(), 2, AllocatorKind::Default, true});
  G.push_back({niagaraLike(), 4, AllocatorKind::Region, true});
  G.push_back({niagaraLike(), 5, AllocatorKind::DDmalloc, true});
  return G;
}

/// One live configuration.
struct Point {
  const ConfigSpec *Spec = nullptr;
  std::unique_ptr<SimSink> Model;
  std::unique_ptr<AccessSampler> Sampler;
  std::unique_ptr<TimedSink> Tee; ///< Traced runs only.
  std::unique_ptr<TransactionRuntime> RT;
  AccessSink *Top = nullptr;
};

struct Sweep {
  std::vector<ConfigSpec> Specs = grid();
  std::vector<WorkloadSpec> Workloads = phpSix();
  std::vector<Point> Points;
};

/// Builds every configuration at \p Seed and warms it up.
void build(Sweep &S, uint64_t Seed, bool WithTee, Result &R) {
  S.Points.clear();
  S.Points.reserve(S.Specs.size());
  for (const ConfigSpec &C : S.Specs) {
    Point Pt;
    Pt.Spec = &C;
    Pt.Model = std::make_unique<SimSink>(C.P, C.P.Cores);
    Pt.Top = Pt.Model.get();
    if (C.Sampled) {
      Pt.Sampler = std::make_unique<AccessSampler>(Pt.Top);
      Pt.Top = Pt.Sampler.get();
    }
    if (WithTee) {
      Pt.Tee = std::make_unique<TimedSink>(*Pt.Top);
      Pt.Top = Pt.Tee.get();
    }
    Pt.RT = std::make_unique<TransactionRuntime>(
        S.Workloads[C.Workload], phpConfig(C.Kind, Seed, WorkloadScale), Pt.Top);
    for (unsigned I = 0; I < WarmupTx; ++I)
      R.check(Pt.RT->executeTransaction() == TxStatus::Ok,
              "sim-sweep: warm-up transaction failed");
    Pt.Top->flush();
    S.Points.push_back(std::move(Pt));
  }
}

/// FNV-1a over every simulated counter and generated statistic.
uint64_t digest(const Sweep &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    for (int B = 0; B < 8; ++B) {
      H ^= (V >> (8 * B)) & 0xff;
      H *= 0x100000001b3ull;
    }
  };
  for (const Point &Pt : S.Points) {
    for (CostDomain D : {CostDomain::Application, CostDomain::MemoryManagement}) {
      const DomainEvents &E = Pt.Model->events(D);
      for (uint64_t V : {E.Instructions, E.LineAccesses, E.L1DMisses, E.L2Hits,
                         E.L2Misses, E.TlbMisses, E.Writebacks,
                         E.PrefetchesIssued, E.PrefetchesUseful})
        Mix(V);
    }
    const TraceStats &T = Pt.RT->metrics().TotalTrace;
    for (uint64_t V : {T.Mallocs, T.Frees, T.Reallocs, T.AllocatedBytes,
                       T.ObjectTouches, T.StateTouches, T.WorkInstructions})
      Mix(V);
  }
  return H;
}

/// Checks the counters of a fresh sweep at DigestSeed against the pinned
/// digest, whatever seed the run itself uses.
void checkDigest(const Options &O, Result &R) {
  Sweep S;
  build(S, DigestSeed, false, R);
  uint64_t Got = digest(S);
  uint64_t Want = 0;
  std::ifstream In(O.DigestFile);
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Want = std::strtoull(Line.c_str(), nullptr, 16);
  if (O.Tamper == "digest")
    Want ^= 1;
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016" PRIx64, Got);
  R.check(Got == Want, "sim-sweep: simulated counters digest " +
                           std::string(Hex) + " does not match " +
                           O.DigestFile);
  R.Notes["digest_matched"] = Got == Want;
}

/// Runs one transaction of \p Pt and checks it; returns its host ns.
int64_t step(Point &Pt, Result &R) {
  int64_t T0 = nowNs();
  TxStatus St = Pt.RT->executeTransaction();
  Pt.Top->flush();
  int64_t Ns = nowNs() - T0;
  R.check(St == TxStatus::Ok && Pt.RT->allocator().stats().UsableBytesLive == 0,
          "sim-sweep: transaction failed or left live bytes after freeAll");
  return Ns;
}

Result untraced(const Options &O) {
  Result R;
  Sweep S;
  std::vector<double> SetupSec;
  for (int I = 0; I < SetupRepeats; ++I) {
    int64_t T0 = nowNs();
    build(S, O.Seed, false, R);
    SetupSec.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  Rounds Rs;
  int64_t Start = nowNs();
  do {
    std::vector<int64_t> Ns;
    for (Point &Pt : S.Points)
      for (unsigned I = 0; I < ChunkTx; ++I)
        Ns.push_back(step(Pt, R));
    Rs.add(Ns);
  } while (static_cast<double>(nowNs() - Start) / 1e9 < O.Seconds);
  S.Points.clear();
  checkDigest(O, R);
  setEndToEnd(R, SetupSec, Rs);
  R.InputDigest = inputDigest({S.Workloads, O.Seed, WorkloadScale, O.OutDir});
  return R;
}

/// The traced run: every configuration alternates an untimed chunk with a
/// chunk whose transactions and sink drains are recorded as spans, and
/// each (workload, allocator) pair is also run cut off at successive
/// layers: generation only, + runtime and allocator with no sink, + sink
/// batching into a NullSink. The SimSink layer is the tee's busy time.
Result traced(const Options &O) {
  Result R;
  Sweep S;
  build(S, O.Seed, true, R);

  struct CutOff {
    size_t Workload;
    Rng Gen;
    std::unique_ptr<TransactionRuntime> NoSink;
    NullSink Null;
    std::unique_ptr<TransactionRuntime> NullSinkRT;
  };
  std::vector<std::unique_ptr<CutOff>> Cuts;
  for (size_t W = 0; W < 6; ++W)
    for (AllocatorKind K : phpStudyAllocatorKinds()) {
      auto C = std::make_unique<CutOff>();
      C->Workload = W;
      C->Gen = Rng(O.Seed, 0);
      RuntimeConfig Cfg = phpConfig(K, O.Seed, WorkloadScale);
      C->NoSink = std::make_unique<TransactionRuntime>(S.Workloads[W], Cfg);
      C->NullSinkRT =
          std::make_unique<TransactionRuntime>(S.Workloads[W], Cfg, &C->Null);
      NullExecutor Null;
      for (unsigned I = 0; I < WarmupTx; ++I) {
        runTransaction(S.Workloads[W], WorkloadScale, C->Gen, Null);
        C->NoSink->executeTransaction();
        C->NullSinkRT->executeTransaction();
      }
      Cuts.push_back(std::move(C));
    }

  SpanLog Spans;
  uint64_t TxId = 0, PlainTx = 0, CutTx = 0, Lines = 0, Events = 0,
           Calls = 0, Ops = 0;
  int64_t PlainNs = 0;
  // Untimed-chunk host time per point, for the sampled/unsampled twins.
  std::vector<int64_t> PointNs(S.Points.size(), 0);

  int64_t Start = nowNs();
  double Budget = O.Seconds * 0.6;
  for (uint64_t Round = 0;
       Round == 0 || static_cast<double>(nowNs() - Start) / 1e9 < Budget;
       ++Round) {
    for (size_t I = 0; I < S.Points.size(); ++I) {
      Point &Pt = S.Points[I];
      bool Sampled = Pt.Spec->Sampled;
      for (int Half = 0; Half < 2; ++Half) {
        // Alternate which half goes first so neither always runs warmer.
        bool Trace = (Half == 0) == (Round % 2 == 0);
        Pt.Tee->setTiming(Trace);
        for (unsigned K = 0; K < ChunkTx; ++K) {
          if (!Trace) {
            int64_t Ns = step(Pt, R);
            PointNs[I] += Ns;
            if (!Sampled) {
              PlainNs += Ns;
              ++PlainTx;
            }
            continue;
          }
          uint64_t L0 = Pt.Model->totalEvents().LineAccesses;
          int32_t Id = Spans.begin(Sampled ? "tx.sampled" : "tx", TxId);
          step(Pt, R);
          Spans.end(Id);
          TimedSink::Window W = Pt.Tee->take();
          Spans.folded(Sampled ? "sampler+sim" : "sim", TxId, Id, W.First,
                       W.Last, W.Busy, W.Calls);
          ++TxId;
          if (Sampled)
            continue;
          Events += W.Events;
          Calls += W.Calls;
          Lines += Pt.Model->totalEvents().LineAccesses - L0;
        }
      }
    }
    for (auto &C : Cuts) {
      const WorkloadSpec &W = S.Workloads[C->Workload];
      NullExecutor Null;
      AllocatorStats Before = C->NoSink->allocator().stats();
      for (unsigned K = 0; K < ChunkTx; ++K, ++CutTx, ++TxId) {
        int32_t Id = Spans.begin("gen", TxId);
        runTransaction(W, WorkloadScale, C->Gen, Null);
        Spans.end(Id);
        Id = Spans.begin("runtime", TxId);
        R.check(C->NoSink->executeTransaction() == TxStatus::Ok,
                "sim-sweep: no-sink transaction failed");
        Spans.end(Id);
        Id = Spans.begin("batch", TxId);
        R.check(C->NullSinkRT->executeTransaction() == TxStatus::Ok,
                "sim-sweep: null-sink transaction failed");
        C->Null.flush();
        Spans.end(Id);
      }
      const AllocatorStats &After = C->NoSink->allocator().stats();
      Ops += allocatorCalls(After) - allocatorCalls(Before);
    }
  }

  std::map<std::string, double> Self = Spans.selfNsByName();
  std::map<std::string, uint64_t> Count = Spans.countByName();
  double Tx = static_cast<double>(Count["tx"]);
  double Cut = static_cast<double>(CutTx);
  double SimNs = Self["sim"] / Tx;
  double TracedNs = (Self["tx"] + Self["sim"]) / Tx;
  // Self time per transaction of the four layers on the simulated path;
  // the cut-offs give generation, runtime + allocator and sink batching
  // by subtraction, the tee gives the machine model.
  double GenNs = Self["gen"] / Cut;
  double RuntimeNs = Self["runtime"] / Cut - GenNs;
  double BatchNs = Self["batch"] / Cut - Self["runtime"] / Cut;
  double LayerSumFrac = (GenNs + RuntimeNs + BatchNs + SimNs) / TracedNs;
  R.set("sim.self_us_per_tx", "us", SimNs / 1e3);
  R.set("sim.ns_per_line_access", "ns", Self["sim"] / static_cast<double>(Lines));
  R.set("sim.events_per_batch", "count",
        static_cast<double>(Events) / static_cast<double>(Calls));
  R.set("workload.gen_us_per_tx", "us", GenNs / 1e3);
  R.set("runtime.us_per_tx", "us", RuntimeNs / 1e3);
  R.set("core.ops_per_tx", "count", static_cast<double>(Ops) / Cut);
  R.Notes["sink_batching_us_per_tx"] = BatchNs / 1e3;
  R.Notes["traced_us_per_tx"] = TracedNs / 1e3;
  // The layers must account for the traced time within a tenth. The
  // cut-offs run at other moments than the full configurations, so a miss
  // is host noise or a missing layer, not a wrong program output: it is
  // reported, not counted as a failed check.
  R.Notes["layer_sum_frac"] = LayerSumFrac;
  R.Notes["layers_add_up"] = std::abs(LayerSumFrac - 1.0) <= 0.1;
  R.set("bench.trace_overhead_frac", "ratio",
        TracedNs / (static_cast<double>(PlainNs) / static_cast<double>(PlainTx)) -
            1.0);
  double Sampled = 0, Twin = 0;
  for (size_t I = 0; I < S.Points.size(); ++I) {
    if (!S.Points[I].Spec->Sampled)
      continue;
    for (size_t J = 0; J < S.Points.size(); ++J) {
      const ConfigSpec &A = *S.Points[I].Spec, &B = *S.Points[J].Spec;
      if (!B.Sampled && A.P.Name == B.P.Name && A.Workload == B.Workload &&
          A.Kind == B.Kind) {
        Sampled += static_cast<double>(PointNs[I]);
        Twin += static_cast<double>(PointNs[J]);
      }
    }
  }
  R.set("sampling.overhead_frac", "ratio", Sampled / Twin - 1.0);

  std::string SpanPath = O.OutDir + "/spans-sim-sweep.jsonl";
  R.check(Spans.write(SpanPath), "sim-sweep: cannot write " + SpanPath);
  S.Points.clear();
  Cuts.clear();

  LayerInputs In{S.Workloads, O.Seed, WorkloadScale, O.OutDir};
  runProbes(In, {Layer::GenRuntime, Layer::Sim}, R);
  R.InputDigest = inputDigest(In);
  return R;
}

} // namespace

Result perfbench::runSimSweep(const Options &O) {
  return O.Trace ? traced(O) : untraced(O);
}
