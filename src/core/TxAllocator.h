//===- core/TxAllocator.h - Transaction-scoped allocator API ---*- C++ -*-===//
///
/// \file
/// The public interface of the allocator study: every allocator the paper
/// compares (the defrag-dodging DDmalloc, the region-based allocator, the
/// Zend-style default allocator of the PHP runtime, and the glibc / Hoard /
/// TCmalloc models used for the Ruby study) implements TxAllocator.
///
/// The interface mirrors the paper's Table 1 taxonomy:
///  - allocate / deallocate / reallocate: the malloc-free interface;
///  - freeAll: bulk free of every transaction-scoped object, called by the
///    runtime at the end of each transaction (only for allocators that
///    support bulk freeing);
///  - supportsPerObjectFree / supportsBulkFree: the two capability axes.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_TXALLOCATOR_H
#define DDM_CORE_TXALLOCATOR_H

#include "core/AccessSink.h"

#include <cstddef>
#include <cstdint>

namespace ddm {

/// Counters every allocator maintains. BytesRequested sums the raw request
/// sizes; the live counters track usable (rounded) bytes, so internal
/// fragmentation is the difference between the two.
struct AllocatorStats {
  uint64_t MallocCalls = 0;
  uint64_t FreeCalls = 0;
  uint64_t ReallocCalls = 0;
  uint64_t FreeAllCalls = 0;
  uint64_t BytesRequested = 0;
  uint64_t UsableBytesLive = 0;
  uint64_t PeakUsableBytesLive = 0;
};

/// The shared half of a kind whose per-thread heaps share one backend in
/// a native run (SharedSegmentPool, TCMallocCentral, HoardCentral,
/// SlabCentral). AllocatorOptions carries it as one untyped handle; each
/// kind's constructor downcasts it to its own central type.
class SharedHeap {
public:
  virtual ~SharedHeap() = default;
};

/// Abstract allocator for transaction-scoped objects.
class TxAllocator {
public:
  virtual ~TxAllocator();

  /// Allocates \p Size bytes (Size may be 0; a unique non-null pointer is
  /// returned). The result is at least 8-byte aligned. Returns nullptr only
  /// if the heap reservation is exhausted.
  virtual void *allocate(size_t Size) = 0;

  /// Frees one object. Allocators without per-object free treat this as a
  /// no-op (the object is reclaimed by the next freeAll). \p Ptr may be
  /// null.
  virtual void deallocate(void *Ptr) = 0;

  /// Resizes an object, preserving min(\p OldSize, \p NewSize) bytes of
  /// content. \p OldSize is the original request size; callers (language
  /// runtimes) always know it, and headerless allocators such as the
  /// region allocator need it to copy. \p Ptr may be null (acts as
  /// allocate).
  virtual void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) = 0;

  /// Bulk-frees every object. Must only be called if supportsBulkFree().
  virtual void freeAll() = 0;

  /// True if per-object deallocate actually reuses memory.
  virtual bool supportsPerObjectFree() const = 0;

  /// True if freeAll() is supported.
  virtual bool supportsBulkFree() const = 0;

  /// Number of usable bytes backing the object at \p Ptr (>= the requested
  /// size). Used by tests and by reallocate implementations. Headerless
  /// allocators that do not track per-object sizes return 0.
  virtual size_t usableSize(const void *Ptr) const = 0;

  /// True if \p Ptr lies in memory this allocator hands objects out of.
  /// A range check, not proof of a live object: wrappers that keep
  /// metadata in front of an object ask it before reading that metadata.
  virtual bool owns(const void *Ptr) const = 0;

  /// Short stable identifier, e.g. "ddmalloc".
  virtual const char *name() const = 0;

  /// Memory consumption in bytes per the paper's Figure 9 definition:
  /// for a region allocator the total bytes allocated since the last
  /// freeAll, for DDmalloc the bytes of used segments plus metadata, and
  /// for header-based heaps the bytes obtained from the underlying
  /// provider.
  virtual uint64_t memoryConsumption() const = 0;

  /// Attaches the instrumentation sink (nullptr detaches). Virtual so that
  /// allocators built on an internal engine can forward the sink to it.
  virtual void attachSink(AccessSink *S) { Sink.attach(S); }

  const AllocatorStats &stats() const { return Stats; }

protected:
  void noteMalloc(size_t Requested, size_t Usable) {
    ++Stats.MallocCalls;
    Stats.BytesRequested += Requested;
    Stats.UsableBytesLive += Usable;
    if (Stats.UsableBytesLive > Stats.PeakUsableBytesLive)
      Stats.PeakUsableBytesLive = Stats.UsableBytesLive;
  }
  void noteFree(size_t Usable) {
    ++Stats.FreeCalls;
    Stats.UsableBytesLive -= Usable;
  }
  void noteFreeAll() {
    ++Stats.FreeAllCalls;
    Stats.UsableBytesLive = 0;
  }

  SinkHandle Sink;
  AllocatorStats Stats;
};

} // namespace ddm

#endif // DDM_CORE_TXALLOCATOR_H
