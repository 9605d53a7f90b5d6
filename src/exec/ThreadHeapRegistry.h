//===- exec/ThreadHeapRegistry.h - Per-thread heap construction *- C++ -*-===//
///
/// \file
/// Maps each worker thread of a native run to its own TxAllocator instance
/// plus whatever shared heap the allocator kind needs. The kind's row in
/// the AllocatorTraits table (core/AllocatorFactory.cpp) names its sharing
/// model and builds the shared heap:
///
///  - sharded-pool (ddmalloc): per-thread heaps refilling from one
///    SharedSegmentPool (sharded striped free lists over a single arena);
///  - shared-central (tcmalloc, hoard, slab): per-thread caches, available
///    lists or magazines over one mutex-guarded central;
///  - private-heap (everything else): fully private per-thread heaps —
///    these allocators have no cross-thread sharing in the paper's
///    deployments (one PHP process per core), so each worker owns one.
///
/// The registry only *builds* heaps; ownership passes to the caller (the
/// executor's worker threads), which keeps the hot paths free of any
/// registry indirection.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_EXEC_THREADHEAPREGISTRY_H
#define DDM_EXEC_THREADHEAPREGISTRY_H

#include "core/AllocatorFactory.h"

#include <memory>
#include <string>

namespace ddm {

/// Builds the shared backend for one native run and hands out per-thread
/// allocator instances.
class ThreadHeapRegistry {
public:
  struct Config {
    AllocatorKind Kind = AllocatorKind::DDmalloc;
    /// Per-thread options. HeapReserveBytes is interpreted per thread:
    /// shared backends reserve Threads * HeapReserveBytes once, private
    /// kinds reserve HeapReserveBytes in each thread's own heap.
    AllocatorOptions Options;
    unsigned Threads = 1;
  };

  /// Builds the shared backend (if the kind has one). Aborts via fatal()
  /// when the reservation fails; tryCreate() is the non-fatal variant.
  explicit ThreadHeapRegistry(const Config &C);

  /// Non-fatal creation: nullptr with \p ErrorOut set when the backend
  /// reservation fails.
  static std::unique_ptr<ThreadHeapRegistry> tryCreate(const Config &C,
                                                       std::string *ErrorOut);

  /// The options thread \p Thread must construct its allocator with:
  /// the shared heap handle attached, ShardId = Thread, ProcessId offset by
  /// Thread (distinct DDmalloc metadata colors per worker).
  AllocatorOptions optionsFor(unsigned Thread) const;

  /// Builds thread \p Thread's allocator. Called from any thread; the
  /// returned allocator must only be used by its owning thread (cross-
  /// thread object transfer happens inside the shared backends).
  std::unique_ptr<TxAllocator> createHeap(unsigned Thread) const;

  AllocatorKind kind() const { return Cfg.Kind; }
  unsigned threads() const { return Cfg.Threads; }

  /// The kind's AllocatorTraits::Sharing: "sharded-pool",
  /// "shared-central" or "private-heap".
  const char *sharingModel() const { return allocatorTraits(Cfg.Kind).Sharing; }

  /// The shared heap every thread's options carry; null for private-heap
  /// kinds.
  SharedHeap *sharedHeap() const { return Shared.get(); }

private:
  ThreadHeapRegistry() = default;
  /// Builds the shared heap (or probes one private heap); returns false
  /// with \p Error set on failure.
  bool init(const Config &C, std::string &Error);

  Config Cfg;
  std::shared_ptr<SharedHeap> Shared;
};

} // namespace ddm

#endif // DDM_EXEC_THREADHEAPREGISTRY_H
