//===- page/SlabAllocator.h - Slab caches over a buddy heap ----*- C++ -*-===//
///
/// \file
/// A kernel-style slab allocator, the eighth member of the zoo. Pages come
/// from an internal binary buddy allocator; each small size class carves
/// power-of-two-page slabs into equal objects with an on-slab header and
/// freelist, maintaining the classic partial / full / empty lifecycle:
///
///  - a freshly grown slab is partial; when its last object leaves it is
///    full and drops off the lists (frees rediscover it via the page map);
///  - when its last object returns it is empty: one empty slab per class
///    is kept as a reserve, the rest are reaped back to the buddy — the
///    page-level reclamation malloc-style heaps lack;
///  - shrink() reaps the reserves too.
///
/// On top sits a magazine per size class (one magazine per allocator, i.e.
/// per owning thread — a single-depot simplification of Bonwick's
/// magazine pairs): frees park objects in the magazine, allocations pop
/// them, and only magazine refills/flushes touch the central, so the
/// shared-central native path takes the lock O(1/batch) per operation.
///
/// Large objects (beyond the 8 KB size-class ceiling) take whole buddy
/// blocks, rounded to a power of two of pages.
///
/// Like the glibc/tcmalloc/hoard models, there is no bulk free: the Ruby
/// study restarts the process instead. The `slab_grow` fault site fires on
/// every central page acquisition (new slab or large run), so chaos plans
/// can starve the slab layer deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PAGE_SLABALLOCATOR_H
#define DDM_PAGE_SLABALLOCATOR_H

#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "page/BuddyAllocator.h"
#include "page/PageBackend.h"

#include <memory>
#include <mutex>
#include <vector>

namespace ddm {

/// The shared half of the slab allocator: the heap span, the buddy page
/// allocator carving it, the page map, and the per-class slab lists. In
/// the single-threaded studies every allocator owns a private central
/// (Shared == false, no locking); in native execution one central is
/// shared by all worker threads' magazines and every access goes through
/// M, which is also the happens-before edge for objects migrating between
/// threads.
struct SlabCentral : SharedHeap {
  static constexpr size_t PageBytes = 4096;
  static constexpr uint8_t PageUnused = 0xFF;
  static constexpr uint8_t PageLargeStart = 0xFE;
  static constexpr uint8_t PageLargeCont = 0xFD;
  static constexpr uint8_t PageSlabCont = 0xFC; ///< Non-head slab page.
  static constexpr uint32_t NoSlab = UINT32_MAX;
  /// First object's byte offset inside a slab; the header lives below it.
  static constexpr size_t ObjectsOffset = 64;
  /// Largest slab order (8-page, 32 KB slabs).
  static constexpr unsigned MaxSlabOrder = 3;

  /// \p Backend, when non-null, supplies the heap span (and sees it again
  /// when the central dies — a restarted process returning its pages).
  SlabCentral(size_t HeapReserveBytes, unsigned NumClasses, bool IsShared,
              const std::shared_ptr<PageBackend> &Backend = nullptr);

  BackedSpan Heap;
  size_t NumPages;
  BuddyAllocator Buddy;

  /// Page map: size class of the slab starting here, or a marker.
  std::vector<uint8_t> PageKind;

  /// Per class: head of the partial-slab list (head-page indices), the
  /// single cached empty slab, the slab order, and objects per slab.
  std::vector<uint32_t> PartialHead;
  std::vector<uint32_t> EmptySlab;
  std::vector<uint8_t> SlabOrder;
  std::vector<uint32_t> SlabCapacity;

  /// Page economy, counted in buddy pages.
  uint64_t PagesLive = 0;
  uint64_t HighWaterPages = 0;
  uint64_t PagesAcquiredTotal = 0;
  uint64_t PagesReturnedTotal = 0;
  uint64_t SlabsCreated = 0;
  uint64_t SlabsReaped = 0;

  /// True when several magazines share this central; guards all fields.
  const bool Shared;
  std::mutex M;
};

/// Builds a central sized for the model's standard size-class map, for
/// sharing between the magazines of a native run. Aborts on reservation
/// failure (probe with AlignedArena::tryReserve first).
std::shared_ptr<SlabCentral> createSlabCentral(size_t HeapReserveBytes);

/// Construction-time knobs for SlabAllocator.
struct SlabConfig {
  size_t HeapReserveBytes = 256ull * 1024 * 1024;
  /// Objects a magazine holds before a free flushes half of it.
  unsigned MagazineCapacity = 64;
  /// Objects pulled from the central per refill.
  unsigned RefillBatch = 16;
  /// Shared buddy heap + slab lists (native multi-threaded mode); null
  /// means this allocator owns a private, lock-free central.
  std::shared_ptr<SlabCentral> Central;
  /// Draw the (private) central's heap span from this page backend instead
  /// of a private arena. Ignored when Central is set.
  std::shared_ptr<PageBackend> Backend;
};

/// The slab allocator: per-class magazines over a buddy-backed slab heap.
class SlabAllocator : public TxAllocator {
public:
  explicit SlabAllocator(const SlabConfig &Config = SlabConfig());

  ~SlabAllocator() override;

  /// Registers the heap, the magazines, and the page map with the sink's
  /// canonical address map. Fatal on a shared central with a non-null
  /// sink: the canonical maps of the sharing magazines would collide
  /// (native execution runs unsimulated).
  void attachSink(AccessSink *S) override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  /// Not supported: the Ruby study restarts processes instead.
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return false; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "slab"; }
  uint64_t memoryConsumption() const override;

  /// Reaps every cached empty slab (including the per-class reserves) back
  /// to the buddy; returns the number of pages reclaimed.
  uint64_t shrink();

  /// \name Introspection for tests and the fragmentation bench.
  /// @{
  bool owns(const void *Ptr) const override {
    return Central->Heap.contains(Ptr);
  }
  SlabCentral *central() const { return Central.get(); }
  uint64_t magazineCount(unsigned Class) const { return MagCount[Class]; }
  /// Slabs currently on the partial list / cached empty for \p Class.
  size_t partialSlabCount(unsigned Class) const;
  bool hasEmptyReserve(unsigned Class) const;
  /// The internal page economy in PageBackendStats form, so the
  /// fragmentation bench reads slab and backend numbers uniformly.
  PageBackendStats pageStats() const;
  /// @}

private:
  static constexpr size_t PageBytes = SlabCentral::PageBytes;
  static constexpr uint8_t PageUnused = SlabCentral::PageUnused;
  static constexpr uint8_t PageLargeStart = SlabCentral::PageLargeStart;
  static constexpr uint8_t PageLargeCont = SlabCentral::PageLargeCont;
  static constexpr uint8_t PageSlabCont = SlabCentral::PageSlabCont;
  static constexpr uint32_t NoSlab = SlabCentral::NoSlab;

  /// The on-slab header, at the head page's base.
  struct SlabHeader {
    uint32_t FreeHead; ///< Offset of the first free object; 0 = none.
    uint32_t InUse;
    uint32_t ClassId;
    uint32_t NextSlab; ///< Partial-list links (head-page indices).
    uint32_t PrevSlab;
  };

  void *allocateSmall(size_t Size);
  void *allocateLarge(size_t Size);
  void refillMagazine(unsigned Class);
  void flushMagazine(unsigned Class, unsigned Keep);

  /// \name Central operations; caller holds the central lock when shared.
  /// @{
  /// Pops one object from a partial slab, growing a slab if none exists.
  /// Returns nullptr on heap exhaustion or a fired `slab_grow` site.
  std::byte *takeObject(unsigned Class);
  /// Creates a fresh slab for \p Class at the head of its partial list.
  bool growClass(unsigned Class);
  /// Returns one object to its slab, maintaining the lifecycle lists.
  void centralFree(std::byte *Object, uint32_t HeadPage, unsigned Class);
  /// Returns the slab at \p HeadPage to the buddy.
  void reapSlab(uint32_t HeadPage, unsigned Class);
  void linkPartial(uint32_t HeadPage, unsigned Class);
  void unlinkPartial(uint32_t HeadPage, unsigned Class);
  /// @}

  /// Head-page index of the slab containing \p Page (bounded back-scan
  /// over PageSlabCont marks).
  uint32_t slabHeadFor(size_t Page) const;

  std::unique_lock<std::mutex> centralLock() const {
    return Central->Shared ? std::unique_lock<std::mutex>(Central->M)
                           : std::unique_lock<std::mutex>();
  }

  size_t pageIndexFor(const void *Ptr) const {
    return (reinterpret_cast<uintptr_t>(Ptr) -
            reinterpret_cast<uintptr_t>(Central->Heap.base())) /
           PageBytes;
  }
  std::byte *pageBase(size_t Index) const {
    return Central->Heap.base() + Index * PageBytes;
  }
  SlabHeader *headerAt(uint32_t HeadPage) const {
    return reinterpret_cast<SlabHeader *>(pageBase(HeadPage));
  }

  SlabConfig Config;
  SizeClassMap Classes;
  std::shared_ptr<SlabCentral> Central;

  /// Magazines: MagazineCapacity slots per class, flattened. Always
  /// private to this allocator (= to its owning thread).
  std::vector<uintptr_t> MagSlots;
  std::vector<uint32_t> MagCount;
};

} // namespace ddm

#endif // DDM_PAGE_SLABALLOCATOR_H
