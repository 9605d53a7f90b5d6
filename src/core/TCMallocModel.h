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
///  - large objects take whole page runs from a first-fit free-run list
///    with eager run coalescing (page-level defragmentation);
///  - a page map (one byte per 8 KB page) records each page's size class,
///    which is how free() learns object sizes without per-object headers.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_TCMALLOCMODEL_H
#define DDM_CORE_TCMALLOCMODEL_H

#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "support/Arena.h"

#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ddm {

/// The shared half of the TCmalloc model: the page heap and the central
/// free lists. In the single-threaded studies every allocator owns a
/// private central (Shared == false, no locking, behaviour unchanged). In
/// native execution one central is shared by all worker threads' caches —
/// the real TCmalloc topology — and every access to it goes through M,
/// which is also the happens-before edge for objects migrating between
/// thread caches via the central lists.
struct TCMallocCentral : SharedHeap {
  static constexpr size_t PageSize = 8 * 1024;
  static constexpr size_t SpanPages = 8; // 64 KB spans feed small classes.
  static constexpr uint8_t PageUnused = 0xFF;
  static constexpr uint8_t PageLargeStart = 0xFE;
  static constexpr uint8_t PageLargeCont = 0xFD;

  TCMallocCentral(size_t HeapReserveBytes, unsigned NumClasses, bool Shared);

  AlignedArena Heap;
  size_t NumPages;
  size_t PageFrontier = 0; ///< First never-used page.
  uint64_t HighWaterPages = 0;

  /// Central free lists per class.
  std::vector<uintptr_t> CentralHead;
  std::vector<uint32_t> CentralCount;

  /// Page map: size class, or the large/unused markers.
  std::vector<uint8_t> PageMap;

  /// Free page runs keyed by first page, value = run length.
  std::map<size_t, size_t> FreeRuns;

  /// True when several caches share this central; guards all fields above.
  const bool Shared;
  std::mutex M;
};

/// Builds a central sized for the model's standard size-class map, for
/// sharing between the thread caches of a native run. Aborts on
/// reservation failure (probe with AlignedArena::tryReserve first for a
/// clean diagnostic).
std::shared_ptr<TCMallocCentral> createTCMallocCentral(size_t HeapReserveBytes);

/// Construction-time knobs for TCMallocModelAllocator.
struct TCMallocConfig {
  size_t HeapReserveBytes = 512ull * 1024 * 1024;
  /// Thread-cache size that triggers a scavenge. TCmalloc's classic
  /// default is 2 MB.
  size_t ScavengeThresholdBytes = 2 * 1024 * 1024;
  /// Objects moved from a central list to the thread cache per refill.
  unsigned RefillBatch = 32;
  /// Shared page heap + central lists (native multi-threaded mode); null
  /// means this allocator owns a private, lock-free central.
  std::shared_ptr<TCMallocCentral> Central;
};

/// The TCmalloc model: thread cache + central lists + page heap.
class TCMallocModelAllocator : public TxAllocator {
public:
  explicit TCMallocModelAllocator(
      const TCMallocConfig &Config = TCMallocConfig());

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

  /// \name Introspection for tests.
  /// @{
  uint64_t scavengeCount() const { return Scavenges; }
  uint64_t threadCacheBytes() const { return CacheBytes; }
  size_t freeRunCount() const;
  bool owns(const void *Ptr) const override {
    return Central->Heap.contains(Ptr);
  }
  TCMallocCentral *central() const { return Central.get(); }
  /// @}

private:
  static constexpr size_t PageSize = TCMallocCentral::PageSize;
  static constexpr size_t SpanPages = TCMallocCentral::SpanPages;
  static constexpr uint8_t PageUnused = TCMallocCentral::PageUnused;
  static constexpr uint8_t PageLargeStart = TCMallocCentral::PageLargeStart;
  static constexpr uint8_t PageLargeCont = TCMallocCentral::PageLargeCont;

  void *allocateSmall(size_t Size);
  void *allocateLarge(size_t Size);
  void refillCache(unsigned Class);
  void scavenge();
  /// Takes \p Pages contiguous pages: first fit over the free runs, else
  /// from the bump frontier. Returns the first page index or SIZE_MAX.
  /// Caller holds the central lock in shared mode.
  size_t takePages(size_t Pages);
  /// Returns a page run to the free list, coalescing with neighbours.
  /// Caller holds the central lock in shared mode.
  void releasePages(size_t FirstPage, size_t Pages);

  /// Locks the central when it is shared; a no-op handle otherwise, so
  /// the single-threaded studies pay nothing.
  std::unique_lock<std::mutex> centralLock() const {
    return Central->Shared ? std::unique_lock<std::mutex>(Central->M)
                           : std::unique_lock<std::mutex>();
  }

  size_t pageIndexFor(const void *Ptr) const {
    return (reinterpret_cast<uintptr_t>(Ptr) -
            reinterpret_cast<uintptr_t>(Central->Heap.base())) /
           PageSize;
  }
  std::byte *pageBase(size_t Index) const {
    return Central->Heap.base() + Index * PageSize;
  }

  TCMallocConfig Config;
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
