//===- core/HoardModel.h - Superblock allocator model ----------*- C++ -*-===//
///
/// \file
/// A model of the Hoard allocator for the Ruby study (paper Section 4.4).
/// Hoard organizes memory into superblocks (64 KB here), each dedicated to
/// one size class; objects are served from the superblock's internal free
/// list or bump region. The emptiness mechanism the model captures: a
/// superblock whose last object is freed is returned to a global pool and
/// can be re-purposed for another class — Hoard's defragmentation-ish
/// bookkeeping that bounds blowup but costs list moves on malloc/free, plus
/// a per-superblock header each free must touch.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_CORE_HOARDMODEL_H
#define DDM_CORE_HOARDMODEL_H

#include "core/FreeRunList.h"
#include "core/PageMap.h"
#include "core/SizeClasses.h"
#include "core/TxAllocator.h"
#include "support/Arena.h"

#include <memory>
#include <vector>

namespace ddm {

/// The shared half of the Hoard model: the superblock arena, the global
/// empty-superblock pool, and the large-run bookkeeping. Private by
/// default; in native execution one central is shared by all worker
/// threads' per-class available lists (SharedCentral) — Hoard's actual
/// design, where per-processor heaps exchange whole superblocks through
/// the global pool.
struct HoardCentral : SharedCentral {
  static constexpr size_t SuperblockBytes = 64 * 1024;

  /// The header living at the start of every small-object superblock.
  struct SuperblockHeader {
    uint32_t ClassIndex;
    uint32_t Used;
    uintptr_t FreeHead;
    std::byte *BumpNext;
    uint32_t BumpRemaining;
    SuperblockHeader *Next;
    SuperblockHeader *Prev;
  };

  HoardCentral(size_t HeapReserveBytes, bool Shared);

  AlignedArena Heap;
  /// Superblocks below a never-shrinking frontier, and the free large
  /// runs. A fresh small-object superblock always comes from the frontier.
  FreeRunList Runs;

  SuperblockHeader *EmptyPool = nullptr;
  /// Superblock map: SbSmall, or the large/unused markers.
  PageMap Map;
};

/// Builds a central for sharing between the per-thread Hoard heaps of a
/// native run. Aborts on reservation failure (probe with
/// AlignedArena::tryReserve first for a clean diagnostic).
std::shared_ptr<HoardCentral> createHoardCentral(size_t HeapReserveBytes);

/// The Hoard model: per-class superblock lists + a global empty pool.
class HoardModelAllocator : public TxAllocator {
public:
  /// Reads HeapReserveBytes and Shared: a HoardCentral there is the
  /// superblock arena + empty pool shared with sibling threads (native
  /// multi-threaded mode); null means this allocator owns a private,
  /// lock-free central.
  explicit HoardModelAllocator(
      const AllocatorOptions &Options = AllocatorOptions());

  ~HoardModelAllocator() override;

  /// Registers the heap, the per-class availability heads, and the
  /// superblock map (the metadata mirrored into the sink) with its
  /// canonical address map. Fatal on a shared central with a non-null
  /// sink (native execution runs unsimulated).
  void attachSink(AccessSink *S) override;

  void *allocate(size_t Size) override;
  void deallocate(void *Ptr) override;
  void *reallocate(void *Ptr, size_t OldSize, size_t NewSize) override;
  /// Not supported: the Ruby study restarts processes instead.
  void freeAll() override;
  bool supportsPerObjectFree() const override { return true; }
  bool supportsBulkFree() const override { return false; }
  size_t usableSize(const void *Ptr) const override;
  const char *name() const override { return "hoard"; }
  uint64_t memoryConsumption() const override;

  /// \name Introspection for tests.
  /// @{
  static constexpr size_t SuperblockBytes = HoardCentral::SuperblockBytes;
  uint64_t superblocksInUse() const;
  uint64_t emptyPoolSize() const;
  bool owns(const void *Ptr) const override {
    return Central->Heap.contains(Ptr);
  }
  HoardCentral *central() const { return Central.get(); }
  /// @}

private:
  static constexpr size_t ObjectsOffset = 64; ///< Header pad inside a SB.
  static constexpr uint8_t SbSmall = 0; ///< Map mark of a class superblock.

  using SuperblockHeader = HoardCentral::SuperblockHeader;

  void *allocateLarge(size_t Size);
  SuperblockHeader *acquireSuperblock(unsigned Class);
  void listPush(SuperblockHeader *&Head, SuperblockHeader *Sb);
  void listRemove(SuperblockHeader *&Head, SuperblockHeader *Sb);

  SuperblockHeader *headerFor(const void *Ptr) const {
    auto Addr = reinterpret_cast<uintptr_t>(Ptr) &
                ~static_cast<uintptr_t>(SuperblockBytes - 1);
    return reinterpret_cast<SuperblockHeader *>(Addr);
  }

  SizeClassMap Classes;
  /// Superblock arena + empty pool: private by default, shared in native
  /// runs.
  std::shared_ptr<HoardCentral> Central;

  /// Per-class lists of superblocks with free space. Always private to
  /// this allocator (= to its owning thread), like Hoard's per-processor
  /// heaps.
  std::vector<SuperblockHeader *> Available;
};

} // namespace ddm

#endif // DDM_CORE_HOARDMODEL_H
