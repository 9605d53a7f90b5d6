//===- workload/TraceGenerator.h - Transaction trace synthesis -*- C++ -*-===//
///
/// \file
/// Generates one web transaction's worth of allocator and memory events
/// from a WorkloadSpec, pushing them into a TxExecutor. The generator owns
/// the object-lifetime bookkeeping (which object dies when, which object a
/// realloc hits); the executor maps object ids onto real pointers and
/// performs the actual work.
///
/// The schedule per allocation step:
///   1. application compute (WorkInstrPerMalloc instructions);
///   2. background state touches (interpreter/data working set);
///   3. revisits of recently-allocated live objects;
///   4. per-object frees that fall due this step (objects die after a
///      geometric lifetime; a FreeCalls/MallocCalls fraction dies at all —
///      the paper reports 7.9%-27.3% of objects are never freed
///      per-object and only reclaimed by freeAll);
///   5. occasional reallocs of live objects;
///   6. one allocation with a log-normal size matching Table 3's mean.
///
/// Everything is deterministic given the Rng.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_WORKLOAD_TRACEGENERATOR_H
#define DDM_WORKLOAD_TRACEGENERATOR_H

#include "support/Random.h"
#include "workload/WorkloadSpec.h"

#include <cstdint>

namespace ddm {

/// Receiver of generated transaction events.
class TxExecutor {
public:
  virtual ~TxExecutor();

  /// A new object \p Id of \p Size bytes.
  virtual void onAlloc(uint32_t Id, size_t Size) = 0;
  /// Object \p Id dies (per-object free).
  virtual void onFree(uint32_t Id) = 0;
  /// Object \p Id is resized from \p OldSize to \p NewSize.
  virtual void onRealloc(uint32_t Id, size_t OldSize, size_t NewSize) = 0;
  /// Object \p Id is read (or written if \p IsWrite).
  virtual void onTouch(uint32_t Id, bool IsWrite) = 0;
  /// \p Instructions of application compute.
  virtual void onWork(uint64_t Instructions) = 0;
  /// One cache line of the application's background state at \p Offset
  /// (relative to the state area) is read or written.
  virtual void onStateTouch(uint64_t Offset, bool IsWrite) = 0;

  /// \name Captured-trace allocation variants (format v2).
  /// The synthetic generator never produces these; they appear when
  /// replaying LD_PRELOAD-captured malloc streams. Executors that do not
  /// care about the zeroing / alignment distinction inherit the
  /// plain-allocation behaviour. Model allocators return >= 8-byte-aligned
  /// memory and the replay mirrors a full-size initializing store, so the
  /// defaults are faithful for every allocator in the zoo.
  /// @{
  virtual void onCalloc(uint32_t Id, size_t Size) { onAlloc(Id, Size); }
  virtual void onAllocAligned(uint32_t Id, size_t Size, uint32_t Alignment) {
    (void)Alignment;
    onAlloc(Id, Size);
  }
  /// @}

  /// True once the executor has abandoned the current transaction (heap
  /// exhaustion, say) and is ignoring further events until the
  /// end-of-transaction boundary. The generator keeps feeding events
  /// regardless — its stream must never depend on the executor — but
  /// replay drivers use this to surface a positioned diagnostic.
  virtual bool txAborted() const { return false; }
};

/// Actual counts produced for one transaction (for Table 3 validation).
/// Mallocs counts every allocation-family call (malloc, calloc, aligned);
/// Callocs and AlignedAllocs are the captured-trace subsets of it.
struct TraceStats {
  uint64_t Mallocs = 0;
  uint64_t Frees = 0;
  uint64_t Reallocs = 0;
  uint64_t Callocs = 0;
  uint64_t AlignedAllocs = 0;
  uint64_t AllocatedBytes = 0;
  uint64_t ObjectTouches = 0;
  uint64_t StateTouches = 0;
  uint64_t WorkInstructions = 0;

  double meanAllocBytes() const {
    return Mallocs ? static_cast<double>(AllocatedBytes) /
                         static_cast<double>(Mallocs)
                   : 0.0;
  }

  /// Accumulates another transaction's counts into this aggregate.
  void add(const TraceStats &O) {
    Mallocs += O.Mallocs;
    Frees += O.Frees;
    Reallocs += O.Reallocs;
    Callocs += O.Callocs;
    AlignedAllocs += O.AlignedAllocs;
    AllocatedBytes += O.AllocatedBytes;
    ObjectTouches += O.ObjectTouches;
    StateTouches += O.StateTouches;
    WorkInstructions += O.WorkInstructions;
  }
};

/// Steps of one generated transaction of \p Spec at \p Scale: one
/// allocation each, so the transaction's object ids stay below it.
uint64_t transactionSteps(const WorkloadSpec &Spec, double Scale);

/// Generates one transaction of \p Spec at \p Scale (1.0 = the paper's
/// full per-transaction call counts) into \p Executor, drawing randomness
/// from \p R.
TraceStats runTransaction(const WorkloadSpec &Spec, double Scale, Rng &R,
                          TxExecutor &Executor);

} // namespace ddm

#endif // DDM_WORKLOAD_TRACEGENERATOR_H
