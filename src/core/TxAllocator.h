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
#include "hardening/HardeningConfig.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>

namespace ddm {

class BuddyPageBackend;
class SizeClassMap;

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

/// The central of the TCmalloc model, the Hoard model and the slab
/// allocator. On a private central (the single-threaded studies) lock()
/// is free. A central shared by the thread caches, heaps or magazines of a
/// native run's workers locks its mutex, which is also the happens-before
/// edge for memory migrating between threads.
class SharedCentral : public SharedHeap {
public:
  explicit SharedCentral(bool IsShared) : Shared(IsShared) {}

  std::unique_lock<std::mutex> lock() const {
    return Shared ? std::unique_lock<std::mutex>(M)
                  : std::unique_lock<std::mutex>();
  }

  /// Fatal when a front end of a shared central attaches a non-null sink:
  /// the canonical address maps of the sharing front ends would collide
  /// (native execution runs unsimulated). \p FrontEnds names them.
  void checkSink(const AccessSink *S, const char *FrontEnds) const;

  /// True when several front ends share this central; the lock then
  /// guards every field of the derived central.
  const bool Shared;

private:
  mutable std::mutex M;
};

/// The one description of how to build an allocator of any kind. Each
/// allocator reads the fields it needs; the knobs no program varies are
/// constants in the allocator's own file.
struct AllocatorOptions {
  /// Runtime process id: feeds DDmalloc's metadata coloring.
  uint32_t ProcessId = 0;
  /// Heap reservation for allocators with a single arena (committed
  /// lazily).
  size_t HeapReserveBytes = 256ull * 1024 * 1024;
  /// DDmalloc segment size; a power of two >= 4096. 32 KB is the paper's
  /// choice.
  size_t SegmentSize = 32 * 1024;
  /// DDmalloc metadata coloring (Section 3.3 optimization 1): stagger the
  /// metadata's position in the heap by process id so that the metadata
  /// of runtimes sharing a cache does not collide in the same
  /// associativity sets.
  bool MetadataColoring = true;
  /// Region allocator chunk size. The paper uses 256 MB.
  size_t RegionChunkBytes = 256ull * 1024 * 1024;

  /// \name Native multi-threaded backends (see src/exec).
  /// @{
  /// The shared heap built by the kind's AllocatorTraits::BuildShared
  /// (ddmalloc's segment pool, the tcmalloc/hoard/slab centrals). When
  /// set, the allocator shares it with its sibling threads instead of
  /// reserving a private heap; the factory rejects a handle built for
  /// another kind. Null (the default) keeps every study single-owner.
  std::shared_ptr<SharedHeap> Shared;
  /// DDmalloc pooled mode: which pool stripe this allocator refills from
  /// (one per worker thread).
  uint32_t ShardId = 0;
  /// @}

  /// Page backend the region/obstack/default/glibc/slab heaps draw their
  /// spans from (--backend buddy); null keeps the legacy private arenas.
  /// Kinds without backend support (ddmalloc, tcmalloc, hoard) ignore it.
  std::shared_ptr<BuddyPageBackend> Backend;

  /// Heap hardening (--harden): when Enabled, the factory wraps the
  /// allocator in the corruption-detecting HardenedAllocator
  /// (src/hardening) — checksummed headers, red-zone canaries and a
  /// poison-on-free quarantine. Applies to every kind; the
  /// adaptive allocator is wrapped once at the top, not per strategy.
  HardeningConfig Hardening;
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

  /// reallocate() for the kinds that serve small sizes from \p Classes
  /// (ddmalloc, tcmalloc, hoard, slab). The block stays where it is,
  /// charged \p InPlaceInstructions, when \p NewSize fits its usable size
  /// and, for a small size, rounds to that very size; otherwise it moves
  /// (reallocCopy) and the old block is freed. \p OldSize must not exceed
  /// the block's usable size.
  void *reallocateInClass(void *Ptr, size_t OldSize, size_t NewSize,
                          const SizeClassMap &Classes,
                          uint64_t InPlaceInstructions);

  /// reallocate() for the bump kinds (region, obstack), which know a
  /// block's size only from \p OldSize: the block stays, charged \p
  /// InPlaceInstructions, when \p NewSize fits OldSize rounded up to 8;
  /// otherwise OldSize bytes move and the old block waits for freeAll().
  void *reallocateBumped(void *Ptr, size_t OldSize, size_t NewSize,
                         uint64_t InPlaceInstructions);

  SinkHandle Sink;
  AllocatorStats Stats;
};

} // namespace ddm

#endif // DDM_CORE_TXALLOCATOR_H
