//===- core/TCMallocModel.h - Thread-caching malloc model ------*- C++ -*-===//
///
/// \file
/// A model of TCmalloc for the Ruby study (paper Section 4.4). The defining
/// behaviour the paper calls out: TCmalloc "reduces the overhead by
/// delaying the defragmentation activities until the total size of the
/// memory objects in the free lists exceeds a threshold" — but the delayed
/// work (scavenging the thread cache back to the central lists, and the
/// page-heap bookkeeping with run coalescing) still costs, and the paper
/// measures that it still loses to DDmalloc.
///
/// Structure of the model:
///  - a per-class thread-cache free list (LIFO) serves malloc/free;
///  - when the cache's total bytes exceed the scavenge threshold, half of
///    every list is flushed to the central free lists (the delayed
///    defragmentation);
///  - empty caches refill in batches from the central lists, which in turn
///    carve 64 KB spans out of the page heap;
///  - large objects take whole page runs from the page heap (FreeRunList:
///    first fit with eager run coalescing, the page-level defragmentation);
///  - a page map (one byte per 8 KB page) records each page's size class,
///    which is how free() learns object sizes without per-object headers.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_TCMALLOCMODEL_H
#define DDM_CORE_TCMALLOCMODEL_H

#include "core/FreeRunList.h"
#include "core/PageMap.h"
#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "support/Arena.h"

#include <memory>
#include <vector>

namespace ddm {

/// The shared half of the TCmalloc model: the page heap and the central
/// free lists, private by default and shared by every worker's thread
/// cache in native runs (SharedCentral).
struct TCMallocCentral : SharedCentral {
  static constexpr size_t PageSize = 8 * 1024;
  static constexpr size_t SpanPages = 8; // 64 KB spans feed small classes.

  TCMallocCentral(size_t HeapReserveBytes, unsigned NumClasses, bool Shared);

  AlignedArena Heap;
  /// The page heap: free page runs below a never-shrinking frontier.
  FreeRunList Runs;

  /// Central free lists per class.
  std::vector<uintptr_t> CentralHead;
  std::vector<uint32_t> CentralCount;

  /// Page map: size class, or the large/unused markers.
  PageMap Map;
};

/// Builds a central sized for the model's standard size-class map, for
/// sharing between the thread caches of a native run. Aborts on
/// reservation failure (probe with AlignedArena::tryReserve first for a
/// clean diagnostic).
std::shared_ptr<TCMallocCentral> createTCMallocCentral(size_t HeapReserveBytes);

/// The TCmalloc model: thread cache + central lists + page heap.
class TCMallocModelAllocator : public TxAllocator {
public:
  /// Reads HeapReserveBytes and Shared: a TCMallocCentral there is the
  /// page heap + central lists shared with sibling threads (native
  /// multi-threaded mode); null means this allocator owns a private,
  /// lock-free central.
  explicit TCMallocModelAllocator(
      const AllocatorOptions &Options = AllocatorOptions());

  ~TCMallocModelAllocator() override;

  /// Registers the heap, the thread-cache heads, and the page map (the
  /// metadata tables mirrored into the sink) with its canonical address
  /// map. Fatal on a shared central with a non-null sink: the canonical
  /// maps of the sharing caches would collide (native execution runs
  /// unsimulated).
  void attachSink(AccessSink *S) override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  /// Not supported: the Ruby study restarts processes instead.
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return false; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "tcmalloc"; }
  uint64_t memoryConsumption() const override;

  /// Thread-cache size that triggers a scavenge. TCmalloc's classic
  /// default is 2 MB.
  static constexpr size_t ScavengeThresholdBytes = 2 * 1024 * 1024;

  /// \name Introspection for tests.
  /// @{
  uint64_t scavengeCount() const { return Scavenges; }
  uint64_t threadCacheBytes() const { return CacheBytes; }
  bool owns(const void *Ptr) const override {
    return Central->Heap.contains(Ptr);
  }
  TCMallocCentral *central() const { return Central.get(); }
  /// @}

private:
  static constexpr size_t PageSize = TCMallocCentral::PageSize;
  static constexpr size_t SpanPages = TCMallocCentral::SpanPages;

  void *allocateSmall(size_t Size);
  void *allocateLarge(size_t Size);
  void refillCache(unsigned Class);
  void scavenge();
  /// Takes \p Pages contiguous pages from the page heap, charging 4
  /// instructions per free run scanned. Returns the first page index or
  /// FreeRunList::NoRun. Caller holds the central lock in shared mode.
  size_t takePages(size_t Pages);

  SizeClassMap Classes;
  /// Page heap + central lists: private by default, shared in native runs.
  std::shared_ptr<TCMallocCentral> Central;

  /// Thread cache: head + object count + byte count per class. Always
  /// private to this allocator (= to its owning thread).
  std::vector<uintptr_t> CacheHead;
  std::vector<uint32_t> CacheCount;
  uint64_t CacheBytes = 0;
  uint64_t Scavenges = 0;
};

} // namespace ddm

#endif // DDM_CORE_TCMALLOCMODEL_H
