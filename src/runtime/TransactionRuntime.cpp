//===- runtime/TransactionRuntime.cpp - PHP/Ruby-style runtime ------------===//

#include "runtime/TransactionRuntime.h"
#include "support/Error.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>

using namespace ddm;

TransactionRuntime::TransactionRuntime(const WorkloadSpec &W,
                                       const RuntimeConfig &C, AccessSink *S)
    : Workload(W), Config(C), Sink(S), SinkHandleView(S),
      StateArea(W.AppStateBytes, 4096), R(C.Seed, C.RngStream),
      TouchRng(C.Seed ^ 0x70c4e5, C.RngStream),
      CleanupRng(C.Seed ^ 0x51eeb, C.RngStream) {
  Allocator = createAllocator(Config.Kind, Config.AllocOptions);
  Allocator->attachSink(Sink);
  installCorruptionHandler();
  Objects.reserve(transactionSteps(W, C.Scale));
  // The interpreter state is modeled, not stored: state touches hand only
  // its addresses to the sink, so the area stays a reserved, never
  // faulted-in mapping. Register it with the canonical address map (after
  // the allocator's regions, a fixed order).
  SinkHandleView.mapRegion(StateArea.base(), StateArea.size());
}

TransactionRuntime::~TransactionRuntime() {
  SinkHandleView.unmapRegion(StateArea.base());
}

double TransactionRuntime::allocatorCodeFootprintBytes() const {
  return allocatorTraits(Config.Kind).CodeFootprintBytes;
}

void TransactionRuntime::setWorkload(const WorkloadSpec &W) {
  if (W.AppStateBytes > StateArea.size())
    fatal("setWorkload: new workload needs " +
          std::to_string(W.AppStateBytes) +
          " bytes of interpreter state but the process reserved only " +
          std::to_string(StateArea.size()));
  Workload = W;
  Objects.reserve(transactionSteps(W, Config.Scale));
}

void TransactionRuntime::touchCanaryMismatch() {
  fatal("heap corruption detected: canary mismatch on touch");
}

void TransactionRuntime::touchLine(const ObjectRecord &Record, bool IsWrite) {
  uint32_t Offset =
      Record.Size > 64
          ? static_cast<uint32_t>(TouchRng.nextBelow(Record.Size - 63)) & ~63u
          : 0;
  auto *Addr = static_cast<std::byte *>(Record.Ptr) + Offset;
  if (IsWrite)
    SinkHandleView.store(Addr, 8);
  else
    SinkHandleView.load(Addr, 8);
  SinkHandleView.instructions(6);
}

void TransactionRuntime::resetObjects() {
  std::fill_n(Objects.begin(), ObjectsInTx, ObjectRecord());
  ObjectsInTx = 0;
}

void TransactionRuntime::onAlloc(uint32_t Id, size_t Size) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::Alloc;
    E.Id = Id;
    E.Size = Size;
    Trace->event(E);
  }
  performAlloc(Id, Size);
}

void TransactionRuntime::onCalloc(uint32_t Id, size_t Size) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::Calloc;
    E.Id = Id;
    E.Size = Size;
    Trace->event(E);
  }
  performAlloc(Id, Size);
}

void TransactionRuntime::onAllocAligned(uint32_t Id, size_t Size,
                                        uint32_t Alignment) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::AllocAligned;
    E.Id = Id;
    E.Size = Size;
    E.Alignment = Alignment;
    Trace->event(E);
  }
  performAlloc(Id, Size);
}

void TransactionRuntime::noteOom(size_t FailedBytes) {
  OomPending = true;
  Outcome.Status = TxStatus::OutOfMemory;
  Outcome.AllocatorName = Allocator->name();
  Outcome.PeakLiveBytes = Allocator->stats().PeakUsableBytesLive;
  Outcome.FailedAllocBytes = FailedBytes;
  SinkHandleView.setDomain(CostDomain::Application);
}

void TransactionRuntime::noteCorruption(const CorruptionReport &Report) {
  // One scribble can trip several verifications while the doomed
  // transaction winds down (free, then the rollback's freeAll); the first
  // report is the diagnosis, the rest are echoes.
  if (CorruptionPending)
    return;
  CorruptionPending = true;
  Outcome.Status = TxStatus::HeapCorruption;
  Outcome.AllocatorName = Allocator->name();
  Outcome.PeakLiveBytes = Allocator->stats().PeakUsableBytesLive;
  Outcome.Corruption = Report;
}

void TransactionRuntime::installCorruptionHandler() {
  Hardened = asHardened(Allocator.get());
  if (Hardened)
    Hardened->setReportHandler(
        [this](const CorruptionReport &Report) { noteCorruption(Report); });
}

void TransactionRuntime::performAlloc(uint32_t Id, size_t Size) {
  if (txAborted())
    return;
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  void *Ptr = faultShouldFail(FaultSite::WorkerHeap)
                  ? nullptr
                  : Allocator->allocate(Size);
  if (!Ptr) {
    // Heap exhausted (or the worker_heap fault site fired): abandon the
    // transaction, not the process. completeTransaction rolls back.
    noteOom(Size);
    return;
  }
  SinkHandleView.setDomain(CostDomain::Application);

  ObjectRecord &Record = recordFor(Id);
  Record.Ptr = Ptr;
  Record.Size = static_cast<uint32_t>(Size);

  // The application initializes every new object (constructor/copy): a
  // real canary write plus the full-size store mirrored to the sink.
  if (Size >= sizeof(uint32_t))
    *static_cast<uint32_t *>(Ptr) = Id;
  SinkHandleView.store(Ptr, static_cast<uint32_t>(Size ? Size : 1));
  SinkHandleView.instructions(4 + Size / 32); // init loop
}

void TransactionRuntime::onFree(uint32_t Id) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::Free;
    E.Id = Id;
    Trace->event(E);
  }
  if (txAborted())
    return;
  ObjectRecord &Record = recordFor(Id);
  assert(Record.Ptr && "freeing a dead object");
  // Canary: the object's identity must have survived.
  if (Record.Size >= sizeof(uint32_t) &&
      *static_cast<uint32_t *>(Record.Ptr) != Id)
    fatal("heap corruption detected: canary mismatch before free");
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  Allocator->deallocate(Record.Ptr);
  SinkHandleView.setDomain(CostDomain::Application);
  Record.Ptr = nullptr;
}

void TransactionRuntime::onRealloc(uint32_t Id, size_t OldSize,
                                   size_t NewSize) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::Realloc;
    E.Id = Id;
    E.Size = NewSize;
    E.OldSize = OldSize;
    Trace->event(E);
  }
  if (txAborted())
    return;
  ObjectRecord &Record = recordFor(Id);
  assert(Record.Ptr && "realloc of a dead object");
  assert(Record.Size == OldSize && "size bookkeeping out of sync");
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  void *Ptr = faultShouldFail(FaultSite::WorkerHeap)
                  ? nullptr
                  : Allocator->reallocate(Record.Ptr, OldSize, NewSize);
  if (!Ptr) {
    // The old object stays live (realloc contract) and is reclaimed by
    // the rollback with everything else.
    noteOom(NewSize);
    return;
  }
  SinkHandleView.setDomain(CostDomain::Application);
  Record.Ptr = Ptr;
  Record.Size = static_cast<uint32_t>(NewSize);
  if (NewSize >= sizeof(uint32_t))
    *static_cast<uint32_t *>(Ptr) = Id; // refresh the canary
  SinkHandleView.store(Ptr, sizeof(uint32_t));
}

void TransactionRuntime::cleanupTransaction() {
  // Sample memory consumption at the end of the transaction, before any
  // reclamation (paper Figure 9's "during the transactions").
  Metrics.ConsumptionBytes.add(
      static_cast<double>(Allocator->memoryConsumption()));

  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  if (Config.UseBulkFree) {
    // GC-frequency modelling: collect only every N transactions.
    if (Config.BulkFreePeriodTx <= 1 ||
        (Metrics.Transactions + 1) % Config.BulkFreePeriodTx == 0)
      Allocator->freeAll();
  } else {
    // Ruby mode: the GC sweeps dead objects through per-object free; a
    // small fraction of litter escapes until the process restarts. The
    // sweep runs in ascending id order: which objects leak, and the heap
    // it leaves behind, depend on it.
    for (size_t Id = 0; Id < ObjectsInTx; ++Id) {
      const ObjectRecord &Record = Objects[Id];
      if (!Record.Ptr)
        continue;
      if (CleanupRng.nextBool(Config.LeakFraction))
        ++LeakedObjects;
      else
        Allocator->deallocate(Record.Ptr);
    }
  }
  SinkHandleView.setDomain(CostDomain::Application);
  resetObjects();
}

void TransactionRuntime::rollbackTransaction() {
  SinkHandleView.setDomain(CostDomain::MemoryManagement);
  if (Allocator->supportsBulkFree()) {
    Allocator->freeAll();
  } else {
    for (size_t Id = 0; Id < ObjectsInTx; ++Id)
      if (Objects[Id].Ptr)
        Allocator->deallocate(Objects[Id].Ptr);
  }
  SinkHandleView.setDomain(CostDomain::Application);
  resetObjects();
}

void TransactionRuntime::restartProcess() {
  // A fresh process: new heap, interpreter boot cost. The boot cost is
  // charged through the sink so it lands in the measured transactions and
  // is amortized over the restart period automatically.
  Allocator = createAllocator(Config.Kind, Config.AllocOptions);
  Allocator->attachSink(Sink);
  installCorruptionHandler();
  LeakedObjects = 0;
  ++Metrics.Restarts;
  Metrics.RestartInstructions += Config.RestartCostInstructions;
  SinkHandleView.instructions(Config.RestartCostInstructions);
}

TxStatus TransactionRuntime::completeTransaction(const TraceStats &Stats) {
  if (Trace) {
    TraceEvent E;
    E.Op = TraceOp::EndTx;
    Trace->event(E);
  }
  if (txAborted()) {
    rollbackTransaction();
    // Corruption takes precedence over OOM: a scribbled heap explains a
    // failed allocation, not the other way around.
    if (CorruptionPending) {
      ++Metrics.CorruptionAborts;
      CorruptionPending = false;
      OomPending = false;
      Outcome.Status = TxStatus::HeapCorruption;
      return TxStatus::HeapCorruption;
    }
    ++Metrics.OomAborts;
    OomPending = false;
    return TxStatus::OutOfMemory;
  }
  Outcome = TxOutcome();
  cleanupTransaction();
  // The cleanup itself can detect corruption (a canary torn by the
  // transaction's last write, a quarantine recycle finding poison
  // damage). The objects are already reclaimed; abort the transaction
  // after the fact so the caller still sees exactly one failed request.
  if (CorruptionPending) {
    ++Metrics.CorruptionAborts;
    CorruptionPending = false;
    Outcome.Status = TxStatus::HeapCorruption;
    return TxStatus::HeapCorruption;
  }

  Metrics.TotalTrace.add(Stats);
  ++Metrics.Transactions;

  if (!Config.UseBulkFree && Config.RestartPeriodTx != 0 &&
      Metrics.Transactions % Config.RestartPeriodTx == 0)
    restartProcess();
  return TxStatus::Ok;
}

TxStatus TransactionRuntime::executeTransaction() {
  return completeTransaction(runTransaction(Workload, Config.Scale, R, *this));
}
