//===- page/BuddyAllocator.h - Binary buddy page allocator -----*- C++ -*-===//
///
/// \file
/// A Linux-style binary buddy allocator over a span of page indices. The
/// engine owns no memory: callers map index ranges onto their own arena
/// (BuddyPageBackend, SlabCentral). Blocks are power-of-two page runs,
/// order 0 .. MaxOrder, each order with its own intrusive free list.
///
/// Coalescing uses the classic one-bit-per-buddy-pair trick: the bit is
/// the XOR of the pair's free states and is toggled on every allocation
/// and free at that order. After toggling on a free, a zero bit means the
/// buddy is also free, so the pair merges and the merge recurses upward;
/// a one bit means the buddy is busy (or outside the span) and the block
/// simply joins its order's free list. Splits walk the other way on
/// allocation. Both paths are O(MaxOrder).
///
/// The per-page arrays (free-list links, allocated orders) live on
/// reserved, never-prefilled pages (ReservedArray) and hold each value
/// plus one, so an untouched zero entry reads as NoPage or NoOrder. Only
/// the pages indexing blocks that were actually split, freed or handed out
/// become resident, not the whole span's worth.
///
/// The engine is deterministic (LIFO free lists, no randomization) and
/// unsynchronized; owners that share it take their own lock.
///
//===----------------------------------------------------------------------===//

#ifndef DDM_PAGE_BUDDYALLOCATOR_H
#define DDM_PAGE_BUDDYALLOCATOR_H

#include "support/Arena.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ddm {

/// Per-order operation counters.
struct BuddyOrderStats {
  uint64_t Allocs = 0;    ///< Blocks of this order handed out.
  uint64_t Frees = 0;     ///< Blocks of this order returned.
  uint64_t Splits = 0;    ///< Splits that produced a free half at this order.
  uint64_t Coalesces = 0; ///< Buddy merges performed at this order.
};

class BuddyAllocator {
public:
  static constexpr uint32_t NoPage = UINT32_MAX;

  /// Covers page indices [0, NumPages). \p MaxOrder is the largest block
  /// order (inclusive); a non-power-of-two span is seeded as the maximal
  /// aligned blocks that tile it, and blocks never coalesce across those
  /// seed boundaries (their buddies do not exist).
  explicit BuddyAllocator(size_t NumPages, unsigned MaxOrder = 10);

  /// Allocates one block of 2^Order pages; returns its first page index,
  /// or NoPage if no block of that order (or any larger order to split)
  /// is free.
  uint32_t allocPages(unsigned Order);

  /// Frees the block starting at \p First, which must have been returned
  /// by allocPages(Order) with the same order.
  void freePages(uint32_t First, unsigned Order);

  /// Smallest order whose block holds \p Pages pages.
  static unsigned orderFor(size_t Pages);

  size_t numPages() const { return NumPages; }
  unsigned maxOrder() const { return MaxOrder; }
  size_t freePageCount() const { return FreePages; }

  /// Pages in the largest currently-free block (0 when exhausted).
  size_t largestFreeBlockPages() const;

  /// Order recorded for the allocated block starting at \p First;
  /// NoOrder (0xFF) if no allocated block starts there.
  static constexpr uint8_t NoOrder = 0xFF;
  uint8_t allocatedOrderAt(uint32_t First) const {
    return static_cast<uint8_t>(AllocOrderPlusOne[First] - 1);
  }

  const BuddyOrderStats &orderStats(unsigned Order) const {
    return Stats[Order];
  }
  uint64_t totalSplits() const;
  uint64_t totalCoalesces() const;

  /// Free blocks currently on the order-\p Order free list.
  size_t freeBlocksAt(unsigned Order) const;

  /// Exhaustive invariant check (free-list membership, alignment, no
  /// overlap between free blocks and allocated blocks, exact page
  /// accounting). Intended for tests; O(NumPages).
  bool verify() const;

  /// Test hook: bytes of the per-page arrays backed by physical pages.
  size_t residentBookkeepingBytes() const;

private:
  uint32_t next(uint32_t Page) const { return NextPlusOne[Page] - 1; }
  uint32_t prev(uint32_t Page) const { return PrevPlusOne[Page] - 1; }
  void setNext(uint32_t Page, uint32_t To) { NextPlusOne[Page] = To + 1; }
  void setPrev(uint32_t Page, uint32_t To) { PrevPlusOne[Page] = To + 1; }
  void setAllocatedOrder(uint32_t First, uint8_t Order) {
    AllocOrderPlusOne[First] = static_cast<uint8_t>(Order + 1);
  }
  void pushFree(uint32_t First, unsigned Order);
  void unlinkFree(uint32_t First, unsigned Order);
  /// Toggles the pair bit of the order-\p Order block at \p First and
  /// returns the new value. MaxOrder blocks have no pair; returns 1.
  unsigned togglePair(uint32_t First, unsigned Order);

  size_t NumPages;
  unsigned MaxOrder;
  size_t FreePages = 0;

  /// Intrusive doubly-linked free lists, one head per order; the links
  /// (next/prev, stored plus one) are meaningful only at the first page of
  /// a free block.
  std::vector<uint32_t> FreeHead;
  ReservedArray<uint32_t> NextPlusOne;
  ReservedArray<uint32_t> PrevPlusOne;

  /// One bit per buddy pair per order < MaxOrder: XOR of the pair's
  /// free-at-this-order states.
  std::vector<std::vector<uint64_t>> PairBits;

  /// Order of the allocated block whose first page this is; NoOrder
  /// elsewhere (stored plus one). Validates frees and lets owners recover
  /// a block's order from its address alone.
  ReservedArray<uint8_t> AllocOrderPlusOne;

  std::vector<BuddyOrderStats> Stats;
};

} // namespace ddm

#endif // DDM_PAGE_BUDDYALLOCATOR_H
