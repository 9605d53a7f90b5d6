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

#include "core/PageMap.h"
#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "page/BuddyAllocator.h"
#include "page/PageBackend.h"

#include <memory>
#include <vector>

namespace ddm {

/// The shared half of the slab allocator: the heap span, the buddy page
/// allocator carving it, the page map, and the per-class slab lists.
/// Private by default, shared by every worker's magazines in native runs
/// (SharedCentral).
struct SlabCentral : SharedCentral {
  static constexpr size_t PageBytes = 4096;
  static constexpr uint8_t PageSlabCont = 0xFC; ///< Non-head slab page.
  static constexpr uint32_t NoSlab = UINT32_MAX;
  /// First object's byte offset inside a slab; the header lives below it.
  static constexpr size_t ObjectsOffset = 64;
  /// Largest slab order (8-page, 32 KB slabs).
  static constexpr unsigned MaxSlabOrder = 3;

  /// \p Backend, when non-null, supplies the heap span (and sees it again
  /// when the central dies — a restarted process returning its pages).
  SlabCentral(size_t HeapReserveBytes, unsigned NumClasses, bool IsShared,
              const std::shared_ptr<BuddyPageBackend> &Backend = nullptr);

  BackedSpan Heap;
  size_t NumPages;
  BuddyAllocator Buddy;

  /// Page map: size class of the slab starting here, PageSlabCont, or a
  /// large/unused marker.
  PageMap Map;

  /// Per class: head of the partial-slab list (head-page indices), the
  /// single cached empty slab, the slab order, and objects per slab.
  std::vector<uint32_t> PartialHead;
  std::vector<uint32_t> EmptySlab;
  std::vector<uint8_t> SlabOrder;
  std::vector<uint32_t> SlabCapacity;

  /// Page economy, counted in buddy pages.
  uint64_t PagesLive = 0;
  uint64_t PeakPagesLive = 0;
  uint64_t PagesAcquiredTotal = 0;
  uint64_t PagesReturnedTotal = 0;
  uint64_t SlabsCreated = 0;
  uint64_t SlabsReaped = 0;
};

/// Builds a central sized for the model's standard size-class map, for
/// sharing between the magazines of a native run. Aborts on reservation
/// failure (probe with AlignedArena::tryReserve first).
std::shared_ptr<SlabCentral> createSlabCentral(size_t HeapReserveBytes);

/// The slab allocator: per-class magazines over a buddy-backed slab heap.
class SlabAllocator : public TxAllocator {
public:
  /// Objects a magazine holds before a free flushes half of it.
  static constexpr unsigned MagazineCapacity = 64;
  /// Objects pulled from the central per refill.
  static constexpr unsigned RefillBatch = 16;

  /// Reads HeapReserveBytes, Backend and Shared: a SlabCentral there is
  /// the buddy heap + slab lists shared with sibling threads (native
  /// multi-threaded mode); null means this allocator owns a private,
  /// lock-free central whose heap span comes from Backend (null: a
  /// private arena).
  explicit SlabAllocator(const AllocatorOptions &Options = AllocatorOptions());

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

  SlabHeader *headerAt(uint32_t HeadPage) const {
    return reinterpret_cast<SlabHeader *>(Central->Map.pageBase(HeadPage));
  }

  SizeClassMap Classes;
  std::shared_ptr<SlabCentral> Central;

  /// Magazines: MagazineCapacity slots per class, flattened. Always
  /// private to this allocator (= to its owning thread).
  std::vector<uintptr_t> MagSlots;
  std::vector<uint32_t> MagCount;
};

} // namespace ddm

#endif // DDM_PAGE_SLABALLOCATOR_H
