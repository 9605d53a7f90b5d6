//===- runtime/TransactionRuntime.h - PHP/Ruby-style runtime ---*- C++ -*-===//
///
/// \file
/// The transaction engine standing in for the PHP (and Ruby) runtime: it
/// executes workload transactions against one of the study's allocators,
/// doing what the real runtimes do at the boundaries:
///
///  - PHP mode (UseBulkFree): every object is transaction-scoped; the
///    runtime calls freeAll at the end of each transaction, exactly like
///    the PHP runtime's custom allocator (the paper replaces only that
///    allocator, nothing else);
///  - Ruby mode (!UseBulkFree): there is no freeAll; the runtime sweeps
///    remaining objects with per-object free at the end of the request
///    (Ruby's GC ultimately frees through malloc/free) and may restart the
///    whole process every N transactions — the Section 4.4 methodology.
///    A small leak fraction escapes the sweep until the next restart,
///    modelling long-lived interpreter litter.
///
/// All object writes/reads are mirrored into the attached AccessSink with
/// the CostDomain set so memory-management and application cycles are
/// attributed separately (Figures 6 and 11).
///
//===----------------------------------------------------------------------===//

#ifndef DDM_RUNTIME_TRANSACTIONRUNTIME_H
#define DDM_RUNTIME_TRANSACTIONRUNTIME_H

#include "core/AllocatorFactory.h"
#include "hardening/Hardening.h"
#include "support/Arena.h"
#include "support/Stats.h"
#include "trace/TraceEvent.h"
#include "workload/TraceGenerator.h"

#include <memory>
#include <vector>

namespace ddm {

/// Configuration of one runtime process.
struct RuntimeConfig {
  AllocatorKind Kind = AllocatorKind::DDmalloc;
  AllocatorOptions AllocOptions;

  /// PHP mode (true): freeAll at every transaction end. Ruby mode
  /// (false): per-object sweep + optional periodic restart.
  bool UseBulkFree = true;

  /// PHP mode: call freeAll only every N transactions (default 1). Larger
  /// periods model a garbage-collected runtime that lets garbage
  /// accumulate and collects only when the heap fills — the paper's
  /// Section 5 discussion: a copying-GC nursery allocates region-style
  /// and cannot reuse dead objects' memory until the collection runs, so
  /// collecting *early* (MicroPhase [24]) keeps the reused memory hot.
  /// Intended for region-style allocators; with per-object-free
  /// allocators the unfreed leftovers of skipped transactions leak until
  /// the next freeAll (like tenured garbage).
  uint64_t BulkFreePeriodTx = 1;

  /// Ruby mode: restart the process every this many transactions
  /// (0 = never). The paper evaluates 20/100/500/2500/no-restart.
  uint64_t RestartPeriodTx = 0;

  /// Ruby mode: fraction of objects escaping the end-of-request sweep
  /// until the next restart (interpreter litter - caches, symbols,
  /// regexps - that spreads the live set and drives heap aging).
  double LeakFraction = 0.01;

  /// Instructions charged for a process restart (interpreter boot),
  /// amortized over the restart period in the performance model.
  uint64_t RestartCostInstructions = 60'000'000;

  /// Workload scale: 1.0 replays the paper's full per-transaction counts.
  double Scale = 1.0;

  uint64_t Seed = 0x5eed;

  /// Splittable RNG stream (xoshiro long-jump count). Workers of a native
  /// run give each (thread, workload) runtime its own stream so their
  /// random sequences never overlap; stream 0 reproduces single-threaded
  /// runs exactly.
  uint64_t RngStream = 0;
};

/// Cumulative measurements across executed transactions.
struct RuntimeMetrics {
  uint64_t Transactions = 0;
  uint64_t Restarts = 0;
  TraceStats TotalTrace;
  /// Allocator memory consumption sampled at each transaction end (before
  /// cleanup), per the paper's Figure 9 definition.
  RunningStat ConsumptionBytes;
  uint64_t RestartInstructions = 0;
  /// Transactions abandoned mid-flight because the allocator exhausted its
  /// heap (or the `worker_heap` fault site fired). Aborted transactions do
  /// not count toward Transactions and contribute nothing to the averages.
  uint64_t OomAborts = 0;
  /// Transactions abandoned because the hardening layer detected heap
  /// corruption (same containment contract as OomAborts: rolled back, not
  /// counted, process keeps serving).
  uint64_t CorruptionAborts = 0;
};

/// How one transaction ended.
enum class TxStatus {
  Ok,             ///< Completed and cleaned up normally.
  OutOfMemory,    ///< Aborted mid-flight; its objects were rolled back.
  HeapCorruption, ///< Hardening detected corruption; rolled back likewise.
};

/// Details of the most recent transaction failure (valid while
/// executeTransaction()/completeTransaction() reports a non-Ok status).
struct TxOutcome {
  TxStatus Status = TxStatus::Ok;
  /// Which allocator refused the allocation (or detected the corruption).
  std::string AllocatorName;
  /// The allocator's live-byte high-water mark when the failure hit.
  uint64_t PeakLiveBytes = 0;
  /// Size of the allocation that failed (OutOfMemory only).
  uint64_t FailedAllocBytes = 0;
  /// The first corruption report of the transaction (HeapCorruption only).
  CorruptionReport Corruption;
};

/// One simulated runtime process.
class TransactionRuntime : public TxExecutor {
public:
  TransactionRuntime(const WorkloadSpec &Workload, const RuntimeConfig &Config,
                     AccessSink *Sink = nullptr);
  ~TransactionRuntime() override;

  /// Runs one full transaction, including end-of-transaction cleanup and
  /// (Ruby mode) any scheduled process restart. Heap exhaustion aborts
  /// only the transaction, never the process: the transaction's objects
  /// are rolled back, the heap stays reusable, and OutOfMemory is
  /// returned with the details in lastOutcome(). Under --harden a detected
  /// corruption follows the same contract and returns HeapCorruption.
  TxStatus executeTransaction();

  /// Finishes a transaction whose events were delivered externally (trace
  /// replay): emits the EndTx tee, runs cleanup, folds \p Stats into the
  /// metrics and performs any scheduled restart. executeTransaction() is
  /// exactly runTransaction() followed by this. An aborted transaction is
  /// rolled back instead (its stats are discarded) and OutOfMemory is
  /// returned.
  TxStatus completeTransaction(const TraceStats &Stats);

  /// Details of the most recent OutOfMemory abort. Reset to Ok by the
  /// next successfully completed transaction.
  const TxOutcome &lastOutcome() const { return Outcome; }

  /// Attaches (or detaches, with nullptr) a tee receiving every executed
  /// event — the capture half of trace record/replay. Costs one predicted
  /// branch per event when detached.
  void attachTraceSink(TraceSink *T) { Trace = T; }

  const RuntimeMetrics &metrics() const { return Metrics; }
  TxAllocator &allocator() { return *Allocator; }
  const WorkloadSpec &workload() const { return Workload; }

  /// Swaps the workload driving subsequent transactions (phase-shifting
  /// benches run several phases against one process, the way a web worker
  /// serves different request mixes across its lifetime). The interpreter
  /// state area is sized at construction; a workload whose AppStateBytes
  /// exceeds it is a fatal configuration error.
  void setWorkload(const WorkloadSpec &W);
  const RuntimeConfig &config() const { return Config; }

  /// Estimated hot-code footprint of the current allocator (for the L1I
  /// model).
  double allocatorCodeFootprintBytes() const;

  /// \name TxExecutor interface (driven by the trace generator or a
  /// captured-trace replay).
  /// @{
  void onAlloc(uint32_t Id, size_t Size) override;
  void onCalloc(uint32_t Id, size_t Size) override;
  void onAllocAligned(uint32_t Id, size_t Size, uint32_t Alignment) override;
  void onFree(uint32_t Id) override;
  void onRealloc(uint32_t Id, size_t OldSize, size_t NewSize) override;
  void onTouch(uint32_t Id, bool IsWrite) override;
  void onWork(uint64_t Instructions) override;
  void onStateTouch(uint64_t Offset, bool IsWrite) override;
  bool txAborted() const override { return OomPending || CorruptionPending; }
  /// @}

  /// Test hook: the heap address backing object \p Id, or nullptr if it is
  /// not live. Lets corruption tests damage a canary in place.
  void *objectAddress(uint32_t Id) const {
    return Id < Objects.size() && Objects[Id].Live ? Objects[Id].Ptr : nullptr;
  }

private:
  struct ObjectRecord {
    void *Ptr = nullptr;
    uint32_t Size = 0;
    bool Live = false;
  };

  void cleanupTransaction();
  /// Frees everything the aborted transaction allocated (bulk-free where
  /// supported, per-object sweep otherwise) so the heap is reusable.
  void rollbackTransaction();
  /// Records the OutOfMemory outcome and switches the runtime into
  /// ignore-until-EndTx mode.
  void noteOom(size_t FailedBytes);
  /// Receives the hardening layer's corruption reports. The first report
  /// of a transaction wins; it flips the same ignore-until-EndTx gate as
  /// an OOM so the doomed transaction winds down without further heap
  /// traffic from the generator's stream.
  void noteCorruption(const CorruptionReport &Report);
  /// Under --harden, points Hardened at the (re)created allocator and
  /// routes its reports into noteCorruption.
  void installCorruptionHandler();
  void restartProcess();
  ObjectRecord &recordFor(uint32_t Id);
  /// Ends the transaction's use of Objects: clears the records it touched
  /// and keeps the storage for the next transaction.
  void resetObjects();
  /// Shared allocation body of onAlloc/onCalloc/onAllocAligned (the tee
  /// differs per kind; the runtime-side behaviour does not — model
  /// allocators have a single >= 8-byte-aligned allocate entry point and
  /// the initializing store already covers calloc's zeroing).
  void performAlloc(uint32_t Id, size_t Size);

  WorkloadSpec Workload;
  RuntimeConfig Config;
  std::unique_ptr<TxAllocator> Allocator;
  AccessSink *Sink;
  SinkHandle SinkHandleView;
  AlignedArena StateArea;
  Rng R;
  Rng TouchRng;
  /// Ruby-mode leak decisions draw from a dedicated stream (not R) so a
  /// trace replay — which never advances the generator's R — makes the
  /// same decisions as the recorded run.
  Rng CleanupRng;
  TraceSink *Trace = nullptr;
  /// Indexed by per-transaction id. Records at and above ObjectsInTx are
  /// all default (not live); the vector only grows.
  std::vector<ObjectRecord> Objects;
  size_t ObjectsInTx = 0; ///< One past the highest id used this transaction.
  uint64_t LeakedObjects = 0;
  RuntimeMetrics Metrics;
  /// True between a failed allocation and the end-of-transaction
  /// boundary: every event handler tees to the trace sink and otherwise
  /// no-ops, so the generator's stream stays allocator-independent while
  /// the doomed transaction winds down.
  bool OomPending = false;
  /// Same gate for a detected corruption; takes precedence over OOM when
  /// both are pending at the transaction boundary.
  bool CorruptionPending = false;
  /// The hardened view of Allocator (null unless --harden); refreshed on
  /// every restartProcess().
  HardenedAllocator *Hardened = nullptr;
  TxOutcome Outcome;
};

} // namespace ddm

#endif // DDM_RUNTIME_TRANSACTIONRUNTIME_H
