//===- bench/chaos.cpp - Deterministic fault-injection soak ---------------===//
///
/// \file
/// The robustness soak: runs the transaction runtime and the serving
/// simulation under an injected, seed-deterministic fault plan and checks
/// the recovery invariants the error-handling contract promises:
///
///  - a mid-transaction allocation failure aborts only that transaction:
///    the process survives, the allocator's live bytes return to zero
///    after every abort, and the next clean transaction succeeds — for
///    every allocator in the zoo;
///  - runtime counters stay consistent (completed + aborted == executed);
///  - serving-layer counters partition every offered attempt (no request
///    is both completed and failed);
///  - the whole run is reproducible: the same --seed produces
///    byte-identical JSON, and the serving soak is executed twice
///    internally and compared.
///
/// Exits nonzero if any invariant breaks, so CI can gate on it.
///
///   ./build/bench/bench_chaos --seed 7
///
//===----------------------------------------------------------------------===//

#include "runtime/TransactionRuntime.h"
#include "server/ServingSimulator.h"
#include "support/ArgParse.h"
#include "support/FaultInjection.h"
#include "support/Json.h"

#include <cstdio>
#include <string>

using namespace ddm;

namespace {

uint64_t Violations = 0;

/// NDEBUG-proof invariant check (benches strip assert()).
void check(bool Ok, const std::string &What) {
  if (!Ok) {
    std::fprintf(stderr, "chaos invariant violated: %s\n", What.c_str());
    ++Violations;
  }
}

FaultPlan parsePlan(const std::string &Spec) {
  FaultPlan Plan;
  std::string Error;
  if (!FaultPlan::parse(Spec, Plan, Error)) {
    std::fprintf(stderr, "internal fault spec '%s' rejected: %s\n",
                 Spec.c_str(), Error.c_str());
    std::exit(2);
  }
  return Plan;
}

/// Phase 1: every allocator survives mid-transaction OOM and stays
/// reusable.
void runtimeSoak(JsonWriter &J, uint64_t Seed, uint64_t TxPerAllocator,
                 const WorkloadSpec &Workload,
                 const std::vector<AllocatorKind> &Kinds) {
  J.key("runtime").beginArray();
  for (AllocatorKind Kind : Kinds) {
    const char *Name = allocatorKindName(Kind);
    // worker_heap fires inside the runtime's allocation path; the
    // every-N sites fail the allocators' own segment/chunk growth.
    FaultPlan Plan = parsePlan("seed=" + std::to_string(Seed) +
                               ",worker_heap:p=0.00002"
                               ",segment_acquire:every=4001"
                               ",chunk_acquire:every=3001");
    FaultInjector::instance().arm(Plan);

    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = allocatorSupportsBulkFree(Kind);
    // No litter: live bytes must return to exactly zero after every
    // transaction, aborted or not.
    Config.LeakFraction = 0.0;
    Config.Scale = 0.1;
    Config.Seed = Seed;
    TransactionRuntime Runtime(Workload, Config);

    uint64_t OomSeen = 0;
    for (uint64_t I = 0; I < TxPerAllocator; ++I) {
      TxStatus S = Runtime.executeTransaction();
      if (S == TxStatus::OutOfMemory) {
        ++OomSeen;
        const TxOutcome &O = Runtime.lastOutcome();
        check(O.Status == TxStatus::OutOfMemory,
              std::string(Name) + ": lastOutcome status matches the abort");
        check(O.AllocatorName == Name,
              std::string(Name) + ": outcome names the failing allocator");
      }
      check(Runtime.allocator().stats().UsableBytesLive == 0,
            std::string(Name) +
                ": live bytes return to zero after every transaction");
    }
    const RuntimeMetrics &RM = Runtime.metrics();
    check(RM.Transactions + RM.OomAborts == TxPerAllocator,
          std::string(Name) + ": completed + aborted == executed");
    check(RM.OomAborts == OomSeen,
          std::string(Name) + ": OomAborts matches returned statuses");
    check(RM.OomAborts > 0,
          std::string(Name) + ": the fault plan actually fired");
    check(RM.Transactions > 0,
          std::string(Name) + ": some transactions still complete");

    FaultInjector::instance().disarm();
    check(Runtime.executeTransaction() == TxStatus::Ok,
          std::string(Name) + ": clean transaction succeeds after disarm");

    J.beginObject()
        .field("allocator", Name)
        .field("transactions", RM.Transactions)
        .field("oom_aborts", RM.OomAborts)
        .endObject();
  }
  J.endArray();
}

/// Phase 1b: with --harden and the corruption-injecting sites armed, a
/// detected scribble aborts exactly one transaction — live bytes return
/// to zero, the outcome is structured, and the process keeps serving.
void hardenedSoak(JsonWriter &J, uint64_t Seed, uint64_t TxPerAllocator,
                  const WorkloadSpec &Workload,
                  const std::vector<AllocatorKind> &Kinds) {
  J.key("hardened").beginArray();
  for (AllocatorKind Kind : Kinds) {
    const char *Name = allocatorKindName(Kind);
    // The scribble sites fire inside the hardened free path; worker_heap
    // keeps OOM aborts in the mix so the corruption-beats-OOM precedence
    // is exercised too.
    // A transaction frees on the order of 20k objects at this scale, so
    // periods of ~100k+ let most transactions complete while a steady
    // minority abort on detected corruption and every site still fires
    // several times over the soak.
    FaultPlan Plan = parsePlan("seed=" + std::to_string(Seed) +
                               ",worker_heap:p=0.00002"
                               ",heap_scribble_overflow:every=100003"
                               ",heap_scribble_uaf:every=140009"
                               ",heap_double_free:every=180001");
    FaultInjector::instance().arm(Plan);

    RuntimeConfig Config;
    Config.Kind = Kind;
    Config.UseBulkFree = allocatorSupportsBulkFree(Kind);
    Config.AllocOptions.Hardening.Enabled = true;
    Config.LeakFraction = 0.0;
    Config.Scale = 0.1;
    Config.Seed = Seed;
    TransactionRuntime Runtime(Workload, Config);

    uint64_t CorruptionSeen = 0, OomSeen = 0;
    for (uint64_t I = 0; I < TxPerAllocator; ++I) {
      TxStatus S = Runtime.executeTransaction();
      if (S == TxStatus::HeapCorruption) {
        ++CorruptionSeen;
        const TxOutcome &O = Runtime.lastOutcome();
        check(O.Status == TxStatus::HeapCorruption,
              std::string(Name) + ": lastOutcome status matches the abort");
        check(O.Corruption.Allocator == Name,
              std::string(Name) + ": the report names the scribbled heap");
      } else if (S == TxStatus::OutOfMemory) {
        ++OomSeen;
      }
      check(Runtime.allocator().stats().UsableBytesLive == 0,
            std::string(Name) +
                ": live bytes return to zero after every transaction "
                "(quarantined bytes excluded)");
    }
    // Snapshot by value: the post-disarm clean transaction below must not
    // leak into the soak's numbers.
    const RuntimeMetrics RM = Runtime.metrics();
    check(RM.Transactions + RM.OomAborts + RM.CorruptionAborts ==
              TxPerAllocator,
          std::string(Name) + ": completed + oom + corruption == executed");
    check(RM.CorruptionAborts == CorruptionSeen,
          std::string(Name) + ": CorruptionAborts matches returned statuses");
    check(RM.CorruptionAborts > 0,
          std::string(Name) + ": the scribble sites actually fired");
    check(RM.Transactions > 0,
          std::string(Name) + ": some transactions still complete");

    FaultInjector::instance().disarm();
    check(Runtime.executeTransaction() == TxStatus::Ok,
          std::string(Name) + ": clean transaction succeeds after disarm");

    J.beginObject()
        .field("allocator", Name)
        .field("transactions", RM.Transactions)
        .field("oom_aborts", RM.OomAborts)
        .field("corruption_aborts", RM.CorruptionAborts)
        .endObject();
  }
  J.endArray();
}

void servingMetricsJson(JsonWriter &J, const ServingMetrics &M) {
  J.beginObject();
  writeServingCounters(J, M);
  J.field("goodput_rps", M.GoodputRps)
      .field("p99_ms", M.p99Ms())
      .endObject();
}

std::string servingMetricsString(const ServingMetrics &M) {
  JsonWriter J;
  servingMetricsJson(J, M);
  return J.str();
}

/// Phase 2: the serving layer under faults + restart policy, twice, with
/// byte-identical results.
void servingSoak(JsonWriter &J, uint64_t Seed, const ServiceTimeModel &Model) {
  // worker_heap fails attempts with OOM; heap_scribble_overflow marks
  // attempts as corruption aborts (the serving layer folds them into the
  // failed/retried accounting and counts them separately).
  FaultPlan Plan = parsePlan("seed=" + std::to_string(Seed) +
                             ",worker_heap:p=0.02"
                             ",heap_scribble_overflow:p=0.01");

  ServingConfig Config;
  Config.Load.Process = ArrivalProcess::ClosedLoop;
  Config.Load.Clients = 24;
  Config.Load.MeanThinkSec = 0.02;
  Config.Load.MixWeights = {1.0};
  Config.Load.Seed = Seed;
  Config.QueueCapacity = 64;
  Config.DurationTx = 400;
  Config.Restart.EveryNTx = 50;
  Config.Restart.OnOom = true;
  Config.Restart.OnCorruption = true;
  Config.Restart.RestartCostSec = 0.01;
  Config.Restart.HeapBytesPerTx = 1 << 20;
  Config.MaxAttempts = 3;
  Config.RetryBackoffSec = 0.005;

  auto RunOnce = [&]() {
    FaultInjector::instance().arm(Plan);
    ServingMetrics M = runServing(Model, Config);
    FaultInjector::instance().disarm();
    return M;
  };

  ServingMetrics First = RunOnce();
  ServingMetrics Second = RunOnce();

  check(First.countersConsistent(),
        "serving: offered == completed + retried + failed + dropped + "
        "unfinished");
  check(First.Completed + First.Failed == Config.DurationTx,
        "serving: the closed loop reached its completion target");
  check(First.Restarts > 0, "serving: the restart policy actually fired");
  check(First.CorruptionAborts > 0,
        "serving: corruption aborts were injected and counted");
  check(servingMetricsString(First) == servingMetricsString(Second),
        "serving: two runs with the same fault seed are byte-identical");

  // Open loop: no retries, the pool drains fully.
  ServingConfig Open = Config;
  Open.Load.Process = ArrivalProcess::Poisson;
  Open.Load.RatePerSec = 0.5 * Model.capacityRps();
  Open.DurationTx = 400;
  FaultInjector::instance().arm(Plan);
  ServingMetrics OpenM = runServing(Model, Open);
  FaultInjector::instance().disarm();
  check(OpenM.countersConsistent(), "serving(open): counters consistent");
  check(OpenM.Retried == 0 && OpenM.Unfinished == 0,
        "serving(open): no retries and a fully drained pool");

  J.key("serving").beginObject();
  J.key("closed");
  servingMetricsJson(J, First);
  J.key("open");
  servingMetricsJson(J, OpenM);
  J.endObject();
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 7;
  uint64_t TxPerAllocator = 120;
  std::string WorkloadName = "mediawiki-read";
  ArgParser Parser(
      "Chaos soak: transaction runtime and serving simulation under a "
      "deterministic fault plan; exits nonzero if any recovery invariant "
      "breaks.");
  Parser.addFlag("seed", &Seed, "fault-plan and workload seed");
  Parser.addFlag("tx", &TxPerAllocator, "transactions per allocator");
  Parser.addFlag("workload", &WorkloadName, "workload name");
  std::string AllocatorName;
  Parser.addFlag("allocator", &AllocatorName,
                 "soak only this allocator (default: all of " +
                     allocatorNamesJoined() + ")");
  if (!Parser.parse(Argc, Argv))
    return 1;

  const WorkloadSpec *Workload = findWorkload(WorkloadName);
  if (!Workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", WorkloadName.c_str());
    return 1;
  }
  std::vector<AllocatorKind> Kinds = allAllocatorKinds();
  if (!AllocatorName.empty()) {
    auto Kind = allocatorKindFromName(AllocatorName);
    if (!Kind) {
      std::fprintf(stderr, "unknown allocator '%s' (names: %s)\n",
                   AllocatorName.c_str(), allocatorNamesJoined().c_str());
      return 1;
    }
    Kinds = {*Kind};
  }

  JsonWriter J;
  J.beginObject().field("bench", "chaos").field("seed", Seed);

  runtimeSoak(J, Seed, TxPerAllocator, *Workload, Kinds);
  hardenedSoak(J, Seed, TxPerAllocator, *Workload, Kinds);

  // Build the service-time model before arming anything: profiling must
  // stay fault-free.
  SimulationOptions Options;
  Options.Scale = 0.1;
  Options.WarmupTx = 1;
  Options.MeasureTx = 4;
  Options.Seed = Seed;
  auto P = platformByName("xeon");
  ServiceTimeModel Model =
      buildServiceTimeModel({*Workload}, AllocatorKind::DDmalloc, *P, 8,
                            Options);
  servingSoak(J, Seed, Model);

  J.field("violations", Violations).endObject();
  std::printf("%s\n", J.str().c_str());
  if (Violations) {
    std::fprintf(stderr, "chaos soak FAILED: %llu invariant violation(s)\n",
                 static_cast<unsigned long long>(Violations));
    return 1;
  }
  return 0;
}
