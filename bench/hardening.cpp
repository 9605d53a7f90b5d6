//===- bench/hardening.cpp - Heap-hardening overhead and detection --------===//
///
/// \file
/// The hardening layer's gatekeeper bench. Three gates (--check):
///
///  - overhead: modeled throughput (cycles/tx) under --harden at default
///    settings stays within 5% of the unhardened run — the red-zone and
///    header bytes inflate the heap footprint and the quarantine delays
///    reuse, and both flow through the cache model honestly;
///  - detection: with the corruption-injecting fault sites armed
///    (heap_scribble_overflow / heap_scribble_uaf / heap_double_free),
///    every injected scribble produces exactly one corruption report of
///    the right kind, for every allocator in the zoo — 100% detection,
///    counted against the injector's own Fired counters;
///  - determinism: the whole detection phase runs twice and must produce
///    byte-identical JSON (CI additionally runs the binary twice and
///    cmp's the output).
///
/// Next to the modeled overhead, the text table shows the wall-clock cost
/// of the allocator calls themselves: ns per call of the detection
/// workout's malloc/free mix, unarmed, on the plain and the hardened heap
/// (median of alternating runs), and the hardened run's overhead. That
/// cost is not gated, and it stays out of the JSON: every JSON field is
/// counter-based or modeled, so the JSON is byte-stable by construction.
///
///   ./build/bench/bench_hardening --check
///
//===----------------------------------------------------------------------===//

#include "experiments/BenchCli.h"
#include "hardening/Hardening.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Random.h"
#include "support/Table.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

using namespace ddm;

namespace {

/// One allocator's detection-phase outcome.
struct DetectionRow {
  const char *Allocator = "";
  uint64_t InjectedOverflow = 0;
  uint64_t InjectedUaf = 0;
  uint64_t InjectedDoubleFree = 0;
  uint64_t DetectedOverflow = 0;
  uint64_t DetectedUaf = 0;
  uint64_t DetectedDoubleFree = 0;
  uint64_t RedzoneChecks = 0;
  uint64_t PoisonChecks = 0;
  uint64_t QuarantineRecycles = 0;

  bool allDetected() const {
    return InjectedOverflow > 0 && InjectedUaf > 0 &&
           InjectedDoubleFree > 0 &&
           DetectedOverflow == InjectedOverflow &&
           DetectedUaf == InjectedUaf &&
           DetectedDoubleFree == InjectedDoubleFree;
  }
};

/// The malloc/free mix of both phases: \p Ops steps, each an allocation
/// of 8-127 bytes (55%) or a free of a random live object, then a free of
/// every object still live. Returns the allocator calls made.
uint64_t workout(TxAllocator &A, uint64_t Seed, uint64_t Ops) {
  Rng R(Seed ^ 0x4a7d1234ull);
  std::vector<void *> Live;
  uint64_t Calls = 0;
  for (uint64_t I = 0; I < Ops; ++I, ++Calls) {
    if (Live.empty() || R.nextBelow(100) < 55) {
      size_t Size = 8 + R.nextBelow(120);
      if (void *P = A.allocate(Size))
        Live.push_back(P);
    } else {
      size_t Idx = R.nextBelow(Live.size());
      A.deallocate(Live[Idx]);
      Live[Idx] = Live.back();
      Live.pop_back();
    }
  }
  for (void *P : Live)
    A.deallocate(P);
  return Calls + Live.size();
}

/// A deterministic workout against one hardened allocator with the
/// scribble sites armed: every free consults the injector, so the every-N
/// triggers land on a reproducible schedule.
DetectionRow detectionWorkout(AllocatorKind Kind, uint64_t Seed,
                              uint64_t Ops) {
  FaultPlan Plan;
  std::string Error;
  std::string Spec = "seed=" + std::to_string(Seed) +
                     ",heap_scribble_overflow:every=97"
                     ",heap_scribble_uaf:every=131"
                     ",heap_double_free:every=181";
  if (!FaultPlan::parse(Spec, Plan, Error)) {
    std::fprintf(stderr, "internal fault spec rejected: %s\n", Error.c_str());
    std::exit(2);
  }

  AllocatorOptions Options;
  Options.Hardening.Enabled = true;
  std::unique_ptr<TxAllocator> A = createAllocator(Kind, Options);
  HardenedAllocator *H = asHardened(A.get());

  DetectionRow Row;
  Row.Allocator = allocatorKindName(Kind);
  // Count reports ourselves (not via fatal): the handler makes detection
  // a survivable, countable event, exactly as the runtime consumes it.
  std::array<uint64_t, NumCorruptionKinds> ByKind{};
  H->setReportHandler([&ByKind](const CorruptionReport &R) {
    ++ByKind[static_cast<unsigned>(R.Kind)];
  });

  FaultInjector::instance().arm(Plan);
  workout(*A, Seed, Ops);
  // Park nothing: scribbles waiting in the ring must still be verified
  // and counted before the injector's Fired counters are read.
  H->drainQuarantine();

  Row.InjectedOverflow =
      FaultInjector::instance()
          .counters(FaultSite::HeapScribbleOverflow)
          .Fired;
  Row.InjectedUaf =
      FaultInjector::instance().counters(FaultSite::HeapScribbleUaf).Fired;
  Row.InjectedDoubleFree =
      FaultInjector::instance().counters(FaultSite::HeapDoubleFree).Fired;
  FaultInjector::instance().disarm();

  Row.DetectedOverflow =
      ByKind[static_cast<unsigned>(CorruptionKind::RedzoneOverflow)];
  Row.DetectedUaf = ByKind[static_cast<unsigned>(CorruptionKind::UseAfterFree)];
  Row.DetectedDoubleFree =
      ByKind[static_cast<unsigned>(CorruptionKind::DoubleFree)];
  const HardeningStats &HS = H->hardeningStats();
  Row.RedzoneChecks = HS.RedzoneChecks;
  Row.PoisonChecks = HS.PoisonChecks;
  Row.QuarantineRecycles = HS.QuarantineRecycles;
  return Row;
}

/// Host ns per allocator call of the unarmed workout on a plain and on a
/// hardened \p Kind heap: the median over alternating runs, each on a
/// fresh heap whose set-up is not timed. The hardened run includes
/// draining its quarantine, so both runs end with everything released.
struct WallCost {
  double PlainNs = 0;
  double HardenedNs = 0;
};

WallCost wallCost(AllocatorKind Kind, uint64_t Seed, uint64_t Ops) {
  constexpr int Runs = 9;
  std::vector<double> Ns[2];
  for (int Run = 0; Run < Runs; ++Run)
    for (bool Harden : {false, true}) {
      AllocatorOptions Options;
      Options.Hardening.Enabled = Harden;
      std::unique_ptr<TxAllocator> A = createAllocator(Kind, Options);
      auto T0 = std::chrono::steady_clock::now();
      uint64_t Calls = workout(*A, Seed, Ops);
      if (Harden)
        asHardened(A.get())->drainQuarantine();
      std::chrono::duration<double, std::nano> Took =
          std::chrono::steady_clock::now() - T0;
      Ns[Harden].push_back(Took.count() / static_cast<double>(Calls));
    }
  auto Median = [](std::vector<double> &V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return V[V.size() / 2];
  };
  return {Median(Ns[0]), Median(Ns[1])};
}

/// The detection rows. The text shows "detected/injected" per scribble
/// kind; the JSON keeps both counts and the hardening counters.
Table detectionTable(const std::vector<DetectionRow> &Rows) {
  auto Ratio = [](uint64_t Detected, uint64_t Injected) {
    return std::to_string(Detected) + "/" + std::to_string(Injected);
  };
  Table Out({"allocator", "overflow", "", "", "uaf", "", "", "double free", "",
             "", "", "", "", "all", ""},
            {"allocator", "", "injected_overflow", "detected_overflow", "",
             "injected_uaf", "detected_uaf", "", "injected_double_free",
             "detected_double_free", "redzone_checks", "poison_checks",
             "quarantine_recycles", "", "all_detected"});
  for (const DetectionRow &Row : Rows)
    Out.row()
        .cell(Row.Allocator)
        .cell(Ratio(Row.DetectedOverflow, Row.InjectedOverflow))
        .cell(Row.InjectedOverflow)
        .cell(Row.DetectedOverflow)
        .cell(Ratio(Row.DetectedUaf, Row.InjectedUaf))
        .cell(Row.InjectedUaf)
        .cell(Row.DetectedUaf)
        .cell(Ratio(Row.DetectedDoubleFree, Row.InjectedDoubleFree))
        .cell(Row.InjectedDoubleFree)
        .cell(Row.DetectedDoubleFree)
        .cell(Row.RedzoneChecks)
        .cell(Row.PoisonChecks)
        .cell(Row.QuarantineRecycles)
        .cell(Row.allDetected() ? "yes" : "NO")
        .cell(Row.allDetected());
  return Out;
}

std::string detectionString(const std::vector<DetectionRow> &Rows) {
  JsonWriter J;
  detectionTable(Rows).writeJson(J);
  return J.str();
}

} // namespace

int main(int Argc, char **Argv) {
  BenchCli Cli;
  Cli.Scale = 0.3;
  Cli.WarmupTx = 1;
  Cli.MeasureTx = 6;
  bool Check = false;
  uint64_t Ops = 24000;
  std::string WorkloadName = "mediawiki-read";
  ArgParser Parser(
      "Heap-hardening gates: modeled throughput overhead of --harden, "
      "deterministic detection of injected scribbles across the allocator "
      "zoo, and byte-identical double-run output.");
  Cli.addSimFlags(Parser);
  Cli.addOutputFlags(Parser);
  Parser.addFlag("workload", &WorkloadName, "workload for the overhead gate");
  Parser.addFlag("ops", &Ops, "detection workout operations per allocator");
  Parser.addFlag("check", &Check,
                 "exit nonzero unless hardening overhead is <= 5%, every "
                 "injected scribble is detected, and the detection phase "
                 "is run-to-run deterministic");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *Workload = findWorkload(WorkloadName);
  if (!Workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }
  Platform P = xeonLike();
  SimulationOptions Base = Cli.simOptions();

  // Gate 1 — overhead. Same run, hardening on vs off; the wrapper feeds
  // the same event stream, so any cycle delta is the modeled cost of the
  // fatter heap (header + red-zone bytes, quarantine-delayed reuse). The
  // wall-clock cost beside it is reported, not gated.
  const AllocatorKind OverheadKinds[] = {AllocatorKind::DDmalloc,
                                         AllocatorKind::Default};
  struct OverheadRow {
    const char *Allocator;
    double PlainCycles;
    double HardenedCycles;
    double OverheadPct;
    WallCost Wall;
  };
  std::vector<OverheadRow> Overhead;
  for (AllocatorKind Kind : OverheadKinds) {
    SimPoint Plain = simulate(*Workload, Kind, P, 1, Base);
    SimulationOptions Hardened = Base;
    Hardened.Hardening.Enabled = true;
    SimPoint Hard = simulate(*Workload, Kind, P, 1, Hardened);
    Overhead.push_back(
        {allocatorKindName(Kind), Plain.Perf.CyclesPerTx,
         Hard.Perf.CyclesPerTx,
         percentOver(Hard.Perf.CyclesPerTx, Plain.Perf.CyclesPerTx),
         wallCost(Kind, Cli.Seed, Ops)});
  }
  bool OverheadOk = true;
  for (const OverheadRow &Row : Overhead)
    OverheadOk = OverheadOk && Row.OverheadPct <= 5.0;

  // Gate 2 — detection, whole zoo. Gate 3 — run it twice; byte-identical.
  std::vector<DetectionRow> Rows;
  for (AllocatorKind Kind : allAllocatorKinds())
    Rows.push_back(detectionWorkout(Kind, Cli.Seed, Ops));
  std::vector<DetectionRow> Rows2;
  for (AllocatorKind Kind : allAllocatorKinds())
    Rows2.push_back(detectionWorkout(Kind, Cli.Seed, Ops));

  bool DetectionOk = true;
  for (const DetectionRow &Row : Rows)
    DetectionOk = DetectionOk && Row.allDetected();
  bool DeterminismOk = detectionString(Rows) == detectionString(Rows2);

  Table OverheadOut({"allocator", "plain cycles/tx", "hardened cycles/tx",
                     "overhead %", "plain ns/call", "hardened ns/call",
                     "wall overhead %"},
                    {"allocator", "plain_cycles_per_tx",
                     "hardened_cycles_per_tx", "overhead_pct", "", "", ""});
  for (const OverheadRow &Row : Overhead)
    OverheadOut.row()
        .cell(Row.Allocator)
        .cell(Row.PlainCycles, 0)
        .cell(Row.HardenedCycles, 0)
        .cell(Row.OverheadPct, 2)
        .cell(Row.Wall.PlainNs, 1)
        .cell(Row.Wall.HardenedNs, 1)
        .cell(percentOver(Row.Wall.HardenedNs, Row.Wall.PlainNs), 1);
  Table Out = detectionTable(Rows);

  if (Cli.Json) {
    JsonWriter J;
    J.beginObject()
        .field("bench", "hardening")
        .field("seed", Cli.Seed)
        .field("ops", Ops)
        .key("overhead");
    OverheadOut.writeJson(J);
    J.key("detection");
    Out.writeJson(J);
    J.field("overhead_ok", OverheadOk)
        .field("detection_ok", DetectionOk)
        .field("determinism_ok", DeterminismOk)
        .endObject();
    std::printf("%s\n", J.str().c_str());
  } else {
    std::printf("Hardening overhead on %s (modeled cycles at default "
                "settings; host wall clock of the allocator calls, not "
                "gated)\n\n",
                Workload->Name.c_str());
    std::fputs(
        (Cli.Csv ? OverheadOut.renderCsv() : OverheadOut.renderAscii())
            .c_str(),
        stdout);
    std::printf("\nDetection of injected scribbles (%llu ops/allocator)\n\n",
                static_cast<unsigned long long>(Ops));
    std::fputs((Cli.Csv ? Out.renderCsv() : Out.renderAscii()).c_str(),
               stdout);
    std::printf("\ndeterminism: %s\n",
                DeterminismOk ? "byte-identical" : "DIVERGED");
  }

  if (Check) {
    if (!OverheadOk)
      for (const OverheadRow &Row : Overhead)
        if (Row.OverheadPct > 5.0)
          std::fprintf(stderr,
                       "check failed: %s hardening overhead %.2f%% exceeds "
                       "5%%\n",
                       Row.Allocator, Row.OverheadPct);
    if (!DetectionOk)
      for (const DetectionRow &Row : Rows)
        if (!Row.allDetected())
          std::fprintf(
              stderr,
              "check failed: %s detected %llu/%llu overflow, %llu/%llu "
              "uaf, %llu/%llu double-free scribbles\n",
              Row.Allocator,
              static_cast<unsigned long long>(Row.DetectedOverflow),
              static_cast<unsigned long long>(Row.InjectedOverflow),
              static_cast<unsigned long long>(Row.DetectedUaf),
              static_cast<unsigned long long>(Row.InjectedUaf),
              static_cast<unsigned long long>(Row.DetectedDoubleFree),
              static_cast<unsigned long long>(Row.InjectedDoubleFree));
    if (!DeterminismOk)
      std::fprintf(stderr,
                   "check failed: two detection runs with the same seed "
                   "diverged\n");
    if (!OverheadOk || !DetectionOk || !DeterminismOk)
      return 1;
  }
  return 0;
}
